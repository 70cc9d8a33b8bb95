/**
 * @file
 * Golden-stats regression gate: replay a small pinned grid and
 * compare every registered scalar against the checked-in golden
 * JSON (tests/integration/golden_stats.json). Any drift - a new
 * scalar, a missing one, or a changed value - fails the test and
 * prints the offending names, so unintentional behaviour changes in
 * the simulator are caught by CI rather than by a reader of Figure 4.
 *
 * After an *intentional* behaviour change, regenerate the golden file
 * with `scripts/golden_stats.sh --update-golden` (or run this binary
 * with that flag) and commit the diff alongside the change.
 *
 * Values are compared exactly: the exporter prints %.17g, which
 * round-trips doubles bit for bit, and the simulator is deterministic
 * by contract (see DESIGN.md), so any tolerance would only mask bugs.
 */

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/minijson.hh"
#include "harness/experiment.hh"
#include "harness/warmup_cache.hh"

#ifndef VSV_GOLDEN_STATS_JSON
#error "build must define VSV_GOLDEN_STATS_JSON"
#endif

namespace vsv
{
namespace
{

bool update_golden = false;

/**
 * The pinned grid: small enough to run in seconds, wide enough to
 * exercise the baseline and the full VSV-FSM path on both a pointer
 * chaser (mcf) and a sequential-chain code (ammp), plus three points
 * aimed at the out-of-order window: a 130-entry RUU (not a multiple
 * of 64) with a 40-entry LSQ, a high-ILP FP code with unpipelined
 * dividers and many same-cycle completions (applu), and Time-Keeping
 * prefetches (art). A second Time-Keeping point (swim) warms up for
 * 60000 instructions, so thousands of decay sweeps run and issue
 * prefetches before the measured window starts.
 */
std::vector<SweepJob>
goldenGrid()
{
    std::vector<SweepJob> jobs;
    for (const char *bench : {"mcf", "ammp"}) {
        SimulationOptions base =
            makeOptions(bench, false, 20000, 5000);
        jobs.push_back({std::string(bench) + "/base", base});

        SimulationOptions fsm = base;
        fsm.vsv = fsmVsvConfig();
        jobs.push_back({std::string(bench) + "/fsm", fsm});
    }
    SimulationOptions odd_window = makeOptions("mcf", false, 20000, 5000);
    odd_window.core.ruuSize = 130;
    odd_window.core.lsqSize = 40;
    odd_window.vsv = fsmVsvConfig();
    jobs.push_back({"mcf/fsm-ruu130", odd_window});

    SimulationOptions fp_ilp = makeOptions("applu", false, 20000, 5000);
    fp_ilp.vsv = fsmVsvConfig();
    jobs.push_back({"applu/fsm", fp_ilp});

    SimulationOptions tk = makeOptions("art", true, 20000, 5000);
    tk.vsv = fsmVsvConfig();
    jobs.push_back({"art/tk-fsm", tk});

    jobs.push_back({"swim/tk", makeOptions("swim", true, 20000, 60000)});
    return jobs;
}

using ScalarMap = std::map<std::string, double>;

std::map<std::string, ScalarMap>
runGrid(WarmupSnapshotCache *cache = nullptr)
{
    SweepRunner runner(0);
    if (cache)
        runner.enableWarmupSnapshots(*cache);
    std::map<std::string, ScalarMap> out;
    for (const SweepOutcome &outcome : runner.run(goldenGrid())) {
        EXPECT_EQ(outcome.status, SweepStatus::Ok) << outcome.error;
        out[outcome.id] = outcome.scalars;
    }
    return out;
}

void
writeGolden(const std::string &path,
            const std::map<std::string, ScalarMap> &grid)
{
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot write " << path;
    os << "{\"runs\":{";
    bool first_run = true;
    for (const auto &[id, scalars] : grid) {
        os << (first_run ? "" : ",") << '"' << id
           << "\":{\"scalars\":{";
        bool first = true;
        for (const auto &[name, value] : scalars) {
            os << (first ? "" : ",") << '"' << name
               << "\":" << jsonNumber(value);
            first = false;
        }
        os << "}}";
        first_run = false;
    }
    os << "}}\n";
}

std::map<std::string, ScalarMap>
loadGolden(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        ADD_FAILURE() << "golden file " << path << " is missing; "
                      << "generate it with scripts/golden_stats.sh "
                      << "--update-golden and commit it";
        return {};
    }
    std::ostringstream buffer;
    buffer << is.rdbuf();

    std::map<std::string, ScalarMap> out;
    const minijson::Value doc = minijson::parse(buffer.str());
    for (const auto &[id, run] : doc.at("runs").object()) {
        ScalarMap &scalars = out[id];
        for (const auto &[name, value] : run.at("scalars").object())
            scalars[name] = value.num();
    }
    return out;
}

/** Exact scalar-map comparison with name-level diagnostics. */
void
expectSameScalars(const std::string &id, const ScalarMap &golden,
                  const ScalarMap &current)
{
    for (const auto &[name, value] : golden) {
        const auto it = current.find(name);
        if (it == current.end()) {
            ADD_FAILURE() << id << ": scalar " << name
                          << " vanished (golden value "
                          << jsonNumber(value) << ")";
        } else if (it->second != value) {
            ADD_FAILURE() << id << ": scalar " << name << " drifted: "
                          << "golden " << jsonNumber(value) << ", now "
                          << jsonNumber(it->second);
        }
    }
    for (const auto &[name, value] : current) {
        if (!golden.count(name)) {
            ADD_FAILURE() << id << ": new scalar " << name << " = "
                          << jsonNumber(value)
                          << " is not in the golden file";
        }
    }
}

TEST(GoldenStatsTest, PinnedGridMatchesGoldenFile)
{
    const std::map<std::string, ScalarMap> current = runGrid();

    if (update_golden) {
        writeGolden(VSV_GOLDEN_STATS_JSON, current);
        std::cout << "updated " << VSV_GOLDEN_STATS_JSON << " with "
                  << current.size() << " runs\n";
        return;
    }

    const std::map<std::string, ScalarMap> golden =
        loadGolden(VSV_GOLDEN_STATS_JSON);
    if (golden.empty())
        return;  // loadGolden already failed the test

    for (const auto &[id, scalars] : golden) {
        if (!current.count(id))
            ADD_FAILURE() << "golden run " << id << " was not produced";
    }
    for (const auto &[id, scalars] : current) {
        const auto it = golden.find(id);
        if (it == golden.end()) {
            ADD_FAILURE() << "run " << id
                          << " has no golden entry; regenerate";
            continue;
        }
        expectSameScalars(id, it->second, scalars);
    }
}

TEST(GoldenStatsTest, CachedWarmupGridMatchesGoldenFile)
{
    // The warmup snapshot cache must hold the same golden line: a
    // sweep that warms each benchmark once and restores the rest has
    // to reproduce every pinned scalar exactly.
    if (update_golden)
        GTEST_SKIP() << "regeneration uses the uncached grid";

    const std::map<std::string, ScalarMap> golden =
        loadGolden(VSV_GOLDEN_STATS_JSON);
    if (golden.empty())
        return;  // loadGolden already failed the test

    WarmupSnapshotCache cache;
    const std::map<std::string, ScalarMap> current = runGrid(&cache);
    // One warmup each for mcf, ammp, applu, art+TK and swim+TK; the
    // core geometry is not part of the warmup key, so the 130-entry
    // RUU point restores mcf's snapshot.
    EXPECT_EQ(cache.stats().misses, 5u);
    EXPECT_EQ(cache.stats().hits, 3u);
    EXPECT_EQ(cache.stats().failures, 0u);

    for (const auto &[id, scalars] : current) {
        const auto it = golden.find(id);
        if (it == golden.end()) {
            ADD_FAILURE() << "run " << id
                          << " has no golden entry; regenerate";
            continue;
        }
        expectSameScalars(id, it->second, scalars);
    }
}

TEST(GoldenStatsTest, LockstepGridMatchesGoldenFile)
{
    // The lockstep batch executor must hold the same golden line. The
    // pinned grid alone never batches (its configs are structurally
    // distinct), so run it alongside a "-dup" copy of each job: every
    // pair shares a structural fingerprint and forms a real 2-replica
    // batch whose leader *and* replica outcome must both match the
    // pinned scalars exactly.
    if (update_golden)
        GTEST_SKIP() << "regeneration uses the uncached grid";

    const std::map<std::string, ScalarMap> golden =
        loadGolden(VSV_GOLDEN_STATS_JSON);
    if (golden.empty())
        return;  // loadGolden already failed the test

    std::vector<SweepJob> jobs = goldenGrid();
    const std::size_t pinned = jobs.size();
    for (std::size_t i = 0; i < pinned; ++i) {
        SweepJob dup = jobs[i];
        dup.id += "-dup";
        jobs.push_back(std::move(dup));
    }

    SweepRunner runner(0);
    runner.enableLockstep(16);
    const std::vector<SweepOutcome> outcomes = runner.run(jobs);

    const LockstepStats &stats = runner.lockstepStats();
    EXPECT_EQ(stats.batches, 8u);
    EXPECT_EQ(stats.batchedRuns, 16u);
    EXPECT_EQ(stats.serialRuns, 0u);
    EXPECT_EQ(stats.fallbacks, 0u);
    EXPECT_TRUE(stats.ineligible.empty());

    for (const SweepOutcome &outcome : outcomes) {
        EXPECT_EQ(outcome.status, SweepStatus::Ok) << outcome.error;
        std::string id = outcome.id;
        if (id.size() > 4 && id.compare(id.size() - 4, 4, "-dup") == 0)
            id.resize(id.size() - 4);
        const auto it = golden.find(id);
        if (it == golden.end()) {
            ADD_FAILURE() << "run " << outcome.id
                          << " has no golden entry; regenerate";
            continue;
        }
        expectSameScalars(outcome.id, it->second, outcome.scalars);
    }
}

TEST(GoldenStatsTest, SelfTestDetectsAPerturbedScalar)
{
    // The comparison must actually be able to fail: perturb one
    // scalar and one name and confirm both are flagged.
    ScalarMap golden{{"cpu.committed", 20000.0}, {"vsv.downs", 3.0}};
    ScalarMap drifted = golden;
    drifted["cpu.committed"] = 20001.0;

    ::testing::TestPartResultArray failures;
    {
        ::testing::ScopedFakeTestPartResultReporter reporter(
            ::testing::ScopedFakeTestPartResultReporter::
                INTERCEPT_ONLY_CURRENT_THREAD,
            &failures);
        expectSameScalars("self/drift", golden, drifted);

        ScalarMap missing = golden;
        missing.erase("vsv.downs");
        expectSameScalars("self/missing", golden, missing);
    }
    ASSERT_EQ(failures.size(), 2);
    EXPECT_NE(std::string(failures.GetTestPartResult(0).message())
                  .find("drifted"),
              std::string::npos);
    EXPECT_NE(std::string(failures.GetTestPartResult(1).message())
                  .find("vanished"),
              std::string::npos);
}

} // namespace
} // namespace vsv

int
main(int argc, char **argv)
{
    // Strip our flag before gtest sees the command line.
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--update-golden") == 0)
            vsv::update_golden = true;
        else
            argv[out++] = argv[i];
    }
    argc = out;
    ::testing::InitGoogleTest(&argc, argv);
    if (vsv::update_golden) {
        // Only the regeneration path; the self-test is irrelevant.
        ::testing::GTEST_FLAG(filter) =
            "GoldenStatsTest.PinnedGridMatchesGoldenFile";
    }
    return RUN_ALL_TESTS();
}
