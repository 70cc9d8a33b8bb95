/**
 * @file
 * Tier-1 result-store smoke gate (the `store_smoke` ctest): sweeping
 * the same grid twice through one --store-dir must simulate every run
 * exactly once. The warm pass serves all runs from the store (zero
 * simulations, witnessed by an idle snapshot cache), its outcomes and
 * its manifest's runs array are byte-identical to the cold pass -
 * including the recorded host-dependent throughput block - and the
 * manifest differs only in the accounting spans (wall clock, cache/
 * lockstep/store counters). The deep checks (codec, quarantine,
 * multi-process safety) live in tests/store.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/minijson.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"

namespace vsv
{
namespace
{

std::string
freshDir(const std::string &leaf)
{
    const std::string dir = testing::TempDir() + leaf;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

/**
 * The manifest's accounting span - wall clock through the cache/
 * lockstep/store counter blocks - is expected to differ between a
 * cold and a warm sweep; everything outside it must not. The span is
 * delimited by stable keys writeSweepJson always emits in order.
 */
std::string
stripAccountingSpan(const std::string &document)
{
    const std::size_t from = document.find(",\"wallSeconds\":");
    const std::size_t to = document.find(",\"config\":");
    if (from == std::string::npos || to == std::string::npos ||
        to <= from)
        return document;
    return document.substr(0, from) + document.substr(to);
}

TEST(StoreSmoke, WarmSweepIsServedEntirelyFromTheStore)
{
    const std::string storeDir = freshDir("vsv_store_smoke");
    const std::string coldJson =
        testing::TempDir() + "vsv_store_smoke_cold.json";
    const std::string warmJson =
        testing::TempDir() + "vsv_store_smoke_warm.json";

    SimulationOptions base = makeOptions("mcf", false, 8000, 3000);
    SimulationOptions fsm = base;
    fsm.vsv = fsmVsvConfig();
    SimulationOptions no_fsm = base;
    no_fsm.vsv = noFsmVsvConfig();
    const std::vector<SweepJob> jobs{
        {"mcf/base", base},
        {"mcf/no-fsm", no_fsm},
        {"mcf/fsm", fsm},
    };

    ExperimentArgs args;
    args.jobs = 2;
    args.storeDir = storeDir;

    args.jsonPath = coldJson;
    const std::vector<SweepOutcome> cold =
        runSweep(args, "store_smoke", jobs);
    args.jsonPath = warmJson;
    const std::vector<SweepOutcome> warm =
        runSweep(args, "store_smoke", jobs);

    // The warm outcomes replay the cold bytes, run for run.
    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
        ASSERT_EQ(warm[i].status, SweepStatus::Ok)
            << warm[i].id << ": " << warm[i].error;
        EXPECT_EQ(warm[i].id, cold[i].id);
        EXPECT_EQ(warm[i].fingerprint, cold[i].fingerprint);
        EXPECT_EQ(warm[i].attempts, cold[i].attempts) << warm[i].id;
        EXPECT_EQ(warm[i].scalars, cold[i].scalars) << warm[i].id;
        EXPECT_EQ(warm[i].statsJson, cold[i].statsJson) << warm[i].id;
        EXPECT_EQ(warm[i].statsText, cold[i].statsText) << warm[i].id;
    }

    const std::string coldDoc = readFile(coldJson);
    const std::string warmDoc = readFile(warmJson);
    ASSERT_FALSE(coldDoc.empty());
    ASSERT_FALSE(warmDoc.empty());

    // The runs array - recorded results, stats, and even the original
    // pass's throughput block - is byte-identical.
    const std::size_t coldRuns = coldDoc.find(",\"runs\":[");
    const std::size_t warmRuns = warmDoc.find(",\"runs\":[");
    ASSERT_NE(coldRuns, std::string::npos);
    ASSERT_NE(warmRuns, std::string::npos);
    EXPECT_EQ(warmDoc.substr(warmRuns), coldDoc.substr(coldRuns));

    // Outside the accounting span the manifests match too.
    EXPECT_EQ(stripAccountingSpan(warmDoc.substr(0, warmRuns)),
              stripAccountingSpan(coldDoc.substr(0, coldRuns)));

    // The store block proves the split: every cold run was simulated
    // and recorded, every warm run was a hit - and the warm pass's
    // idle snapshot cache proves nothing warmed up, i.e. zero
    // simulations happened at all.
    const minijson::Value coldTop = minijson::parse(coldDoc);
    const minijson::Value warmTop = minijson::parse(warmDoc);
    const minijson::Value &coldStore =
        coldTop.at("manifest").at("store");
    EXPECT_EQ(coldStore.at("hits").num(), 0);
    EXPECT_EQ(coldStore.at("misses").num(), 3);
    EXPECT_EQ(coldStore.at("inserts").num(), 3);
    const minijson::Value &warmStore =
        warmTop.at("manifest").at("store");
    EXPECT_EQ(warmStore.at("hits").num(), 3);
    EXPECT_EQ(warmStore.at("misses").num(), 0);
    EXPECT_EQ(warmStore.at("inserts").num(), 0);
    const minijson::Value &warmCache =
        warmTop.at("manifest").at("snapshotCache");
    EXPECT_EQ(warmCache.at("hits").num(), 0);
    EXPECT_EQ(warmCache.at("misses").num(), 0);

    std::filesystem::remove_all(storeDir);
    std::filesystem::remove(coldJson);
    std::filesystem::remove(warmJson);
}

} // namespace
} // namespace vsv
