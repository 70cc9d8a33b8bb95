/**
 * @file
 * WarmupSnapshotCache contracts: one warmup per fingerprint under a
 * parallel sweep, the fingerprint's sensitivity boundary (warmup-
 * affecting knobs in, measurement-only knobs out), disk persistence
 * with corrupt files degrading to misses, and the cache counters'
 * appearance in the sweep manifest.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "harness/experiment.hh"
#include "harness/simulator.hh"
#include "harness/sweep.hh"
#include "harness/warmup_cache.hh"
#include "workload/workload.hh"

namespace vsv
{
namespace
{

/** Six jobs, two distinct warmup fingerprints (mcf and ammp). */
std::vector<SweepJob>
twoBenchmarkGrid()
{
    std::vector<SweepJob> jobs;
    for (const std::string name : {"mcf", "ammp"}) {
        SimulationOptions base = makeOptions(name, false, 5000, 3000);
        jobs.push_back({name + "/base", base});
        SimulationOptions no_fsm = base;
        no_fsm.vsv = noFsmVsvConfig();
        jobs.push_back({name + "/no-fsm", no_fsm});
        SimulationOptions with_fsm = base;
        with_fsm.vsv = fsmVsvConfig();
        jobs.push_back({name + "/fsm", with_fsm});
    }
    return jobs;
}

/** A scratch directory unique to this test, created empty. */
std::string
freshDir(const std::string &leaf)
{
    const std::string dir = testing::TempDir() + leaf;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(WarmupCacheTest, OneWarmupPerFingerprintUnderParallelSweep)
{
    SweepRunner runner(4);
    WarmupSnapshotCache cache;
    runner.enableWarmupSnapshots(cache);
    const std::vector<SweepOutcome> outcomes =
        runner.run(twoBenchmarkGrid());

    for (const SweepOutcome &out : outcomes)
        EXPECT_EQ(out.status, SweepStatus::Ok) << out.id << out.error;

    const SnapshotCacheStats stats = cache.stats();
    EXPECT_TRUE(stats.enabled);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_EQ(stats.diskHits, 0u);
    EXPECT_EQ(stats.failures, 0u);
}

TEST(WarmupCacheTest, MixedTkGridIsScheduleIndependent)
{
    // Time-Keeping warmups run longer than the rest, so the sweep
    // starts them first; the counters and every outcome must still
    // be those of a one-thread sweep.
    std::vector<SweepJob> jobs = twoBenchmarkGrid();
    for (const std::string name : {"art", "swim"}) {
        SimulationOptions tk = makeOptions(name, true, 5000, 6000);
        jobs.push_back({name + "/tk", tk});
        tk.vsv = fsmVsvConfig();
        jobs.push_back({name + "/tk-fsm", tk});
    }

    const auto sweep = [&jobs](unsigned threads) {
        SweepRunner runner(threads);
        WarmupSnapshotCache cache;
        runner.enableWarmupSnapshots(cache);
        std::vector<SweepOutcome> outcomes = runner.run(jobs);
        return std::make_pair(cache.stats(), std::move(outcomes));
    };
    const auto [serial_stats, serial] = sweep(1);
    const auto [parallel_stats, parallel] = sweep(4);

    EXPECT_EQ(serial_stats.misses, 4u);
    EXPECT_EQ(serial_stats.hits, 6u);
    EXPECT_EQ(parallel_stats.misses, serial_stats.misses);
    EXPECT_EQ(parallel_stats.hits, serial_stats.hits);
    EXPECT_EQ(parallel_stats.diskHits, 0u);
    EXPECT_EQ(parallel_stats.failures, 0u);
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(parallel[i].status, SweepStatus::Ok) << parallel[i].error;
        EXPECT_EQ(parallel[i].id, jobs[i].id);
        EXPECT_EQ(parallel[i].statsJson, serial[i].statsJson) << jobs[i].id;
        EXPECT_EQ(parallel[i].result.ticks, serial[i].result.ticks);
    }
}

TEST(WarmupCacheTest, ManifestRecordsCacheCounters)
{
    SweepRunner runner(2);
    WarmupSnapshotCache cache;
    runner.enableWarmupSnapshots(cache);
    const std::vector<SweepOutcome> outcomes =
        runner.run(twoBenchmarkGrid());

    SweepManifest manifest;
    manifest.tool = "warmup_cache_test";
    manifest.threads = runner.threads();
    manifest.snapshotCache = cache.stats();
    std::ostringstream os;
    writeSweepJson(os, manifest, outcomes);

    EXPECT_NE(os.str().find("\"snapshotCache\":{\"enabled\":true"
                            ",\"hits\":4,\"misses\":2"
                            ",\"diskHits\":0,\"failures\":0}"),
              std::string::npos)
        << os.str().substr(0, 400);
}

TEST(WarmupCacheTest, DisabledCacheReportsDisabledInManifest)
{
    SweepManifest manifest;
    manifest.tool = "warmup_cache_test";
    std::ostringstream os;
    writeSweepJson(os, manifest, {});
    EXPECT_NE(os.str().find("\"snapshotCache\":{\"enabled\":false"),
              std::string::npos);
}

TEST(WarmupCacheTest, DiskPersistenceCarriesWarmupAcrossCampaigns)
{
    const std::string dir = freshDir("vsv_warmup_cache_disk");
    SimulationOptions options = makeOptions("mcf", false, 5000, 3000);
    const std::string fp = warmupFingerprint(options);

    SweepOutcome first;
    {
        WarmupSnapshotCache cache(dir);
        first = SweepRunner::runOne({"mcf", options}, &cache);
        EXPECT_EQ(cache.stats().misses, 1u);
        EXPECT_EQ(cache.stats().diskHits, 0u);
        EXPECT_TRUE(std::filesystem::exists(dir + "/" + fp + ".vsvsnap"));
    }

    // A new cache (new campaign) must find the file and skip warmup.
    WarmupSnapshotCache cache(dir);
    const SweepOutcome second =
        SweepRunner::runOne({"mcf", options}, &cache);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(cache.stats().diskHits, 1u);
    EXPECT_EQ(cache.stats().failures, 0u);

    EXPECT_EQ(first.scalars, second.scalars);
    EXPECT_EQ(first.statsJson, second.statsJson);
    EXPECT_EQ(first.result.ticks, second.result.ticks);

    std::filesystem::remove_all(dir);
}

TEST(WarmupCacheTest, CorruptDiskFileIsAMissNotAnError)
{
    const std::string dir = freshDir("vsv_warmup_cache_corrupt");
    SimulationOptions options = makeOptions("mcf", false, 5000, 3000);
    const std::string fp = warmupFingerprint(options);

    SweepOutcome reference;
    {
        WarmupSnapshotCache cache;
        reference = SweepRunner::runOne({"mcf", options}, &cache);
    }

    std::filesystem::create_directories(dir);
    {
        std::ofstream os(dir + "/" + fp + ".vsvsnap",
                         std::ios::binary);
        os << "garbage, not a snapshot";
    }

    WarmupSnapshotCache cache(dir);
    const SweepOutcome out =
        SweepRunner::runOne({"mcf", options}, &cache);
    const SnapshotCacheStats stats = cache.stats();
    EXPECT_EQ(stats.failures, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.diskHits, 0u);

    // The rejected file was quarantined (renamed `.bad`), so no later
    // campaign sharing this directory re-reads and re-rejects it.
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + fp +
                                        ".vsvsnap.bad"));

    // The run fell back to a fresh warmup and matched exactly...
    EXPECT_EQ(out.status, SweepStatus::Ok);
    EXPECT_EQ(out.scalars, reference.scalars);
    EXPECT_EQ(out.statsJson, reference.statsJson);

    // ...and the recompute replaced the corrupt file with a good one.
    WarmupSnapshotCache reload(dir);
    const SweepOutcome again =
        SweepRunner::runOne({"mcf", options}, &reload);
    EXPECT_EQ(reload.stats().diskHits, 1u);
    EXPECT_EQ(reload.stats().failures, 0u);
    EXPECT_EQ(again.scalars, reference.scalars);

    std::filesystem::remove_all(dir);
}

TEST(WarmupCacheTest, TruncatedDiskFileIsAMissNotAnError)
{
    const std::string dir = freshDir("vsv_warmup_cache_trunc");
    SimulationOptions options = makeOptions("ammp", false, 5000, 3000);
    const std::string fp = warmupFingerprint(options);

    // Produce a valid file, then chop it in half.
    {
        WarmupSnapshotCache cache(dir);
        SweepRunner::runOne({"ammp", options}, &cache);
    }
    const std::string path = dir + "/" + fp + ".vsvsnap";
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full / 2);

    WarmupSnapshotCache cache(dir);
    const SweepOutcome out =
        SweepRunner::runOne({"ammp", options}, &cache);
    EXPECT_EQ(out.status, SweepStatus::Ok);
    EXPECT_EQ(cache.stats().failures, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    // Quarantined, and the recompute wrote a fresh good file back
    // under the original name.
    EXPECT_TRUE(std::filesystem::exists(path + ".bad"));
    EXPECT_TRUE(std::filesystem::exists(path));

    std::filesystem::remove_all(dir);
}

TEST(WarmupCacheTest, OldFormatDiskFileIsQuarantined)
{
    // A snapshot left by an older build: the same warmup, but headed
    // with format version 2, whose sections carried byte-serial FNV-1a
    // checksums. The reader refuses it at the header; the cache must
    // quarantine it and warm up fresh.
    const std::string dir = freshDir("vsv_warmup_cache_v2");
    SimulationOptions options = makeOptions("gzip", false, 5000, 3000);
    const std::string fp = warmupFingerprint(options);
    const SweepOutcome reference = SweepRunner::runOne({"gzip", options});

    Simulator warmed(options);
    warmed.warmup();
    std::string bytes(warmed.snapshot(fp).view());
    const std::uint32_t old_version = 2;
    std::memcpy(bytes.data() + 4, &old_version, sizeof(old_version));
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + fp + ".vsvsnap";
    {
        std::ofstream out(path, std::ios::binary);
        out << bytes;
    }

    WarmupSnapshotCache cache(dir);
    const SweepOutcome out =
        SweepRunner::runOne({"gzip", options}, &cache);
    EXPECT_EQ(out.status, SweepStatus::Ok);
    EXPECT_EQ(cache.stats().failures, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().diskHits, 0u);
    EXPECT_TRUE(std::filesystem::exists(path + ".bad"));
    EXPECT_EQ(out.scalars, reference.scalars);
    EXPECT_EQ(out.statsJson, reference.statsJson);
    EXPECT_EQ(out.result.ticks, reference.result.ticks);
    EXPECT_EQ(out.result.energyPj, reference.result.energyPj);

    std::filesystem::remove_all(dir);
}

TEST(WarmupFingerprintTest, MeasurementOnlyKnobsShareAFingerprint)
{
    const SimulationOptions base = makeOptions("mcf", false, 5000, 3000);
    const std::string fp = warmupFingerprint(base);

    SimulationOptions vsv_on = base;
    vsv_on.vsv = fsmVsvConfig();
    EXPECT_EQ(warmupFingerprint(vsv_on), fp);

    SimulationOptions longer = base;
    longer.measureInstructions *= 4;
    EXPECT_EQ(warmupFingerprint(longer), fp);

    SimulationOptions wide = base;
    wide.core.issueWidth += 1;
    EXPECT_EQ(warmupFingerprint(wide), fp);

    SimulationOptions no_ff = base;
    no_ff.fastForward = false;
    EXPECT_EQ(warmupFingerprint(no_ff), fp);

    SimulationOptions more_units = base;
    more_units.core.fuPools.count[0] += 1;
    EXPECT_EQ(warmupFingerprint(more_units), fp);
}

TEST(WarmupFingerprintTest, WarmupAffectingKnobsSplitTheFingerprint)
{
    const SimulationOptions base = makeOptions("mcf", false, 5000, 3000);
    const std::string fp = warmupFingerprint(base);

    SimulationOptions other_bench = makeOptions("art", false, 5000, 3000);
    EXPECT_NE(warmupFingerprint(other_bench), fp);

    SimulationOptions longer_warmup = base;
    longer_warmup.warmupInstructions += 1;
    EXPECT_NE(warmupFingerprint(longer_warmup), fp);

    SimulationOptions with_tk = base;
    with_tk.timekeeping = true;
    EXPECT_NE(warmupFingerprint(with_tk), fp);

    SimulationOptions other_seed = base;
    other_seed.profile.seed += 1;
    EXPECT_NE(warmupFingerprint(other_seed), fp);

    SimulationOptions small_l2 = base;
    small_l2.hierarchy.l2.sizeBytes /= 2;
    EXPECT_NE(warmupFingerprint(small_l2), fp);

    SimulationOptions fewer_mshrs = base;
    fewer_mshrs.hierarchy.l2Mshrs /= 2;
    EXPECT_NE(warmupFingerprint(fewer_mshrs), fp);

    // Time-Keeping trains during warmup: a snapshot taken under other
    // signature bits or training knobs holds other predictor state,
    // which the snapshot's table-size guard cannot see.
    SimulationOptions other_index_bits = base;
    other_index_bits.tk.indexSigBits += 1;
    EXPECT_NE(warmupFingerprint(other_index_bits), fp);

    SimulationOptions other_confidence = base;
    other_confidence.tk.confidenceThreshold += 1;
    EXPECT_NE(warmupFingerprint(other_confidence), fp);

    SimulationOptions nudged_gating = base;
    nudged_gating.power.gatingEfficiency *= 1.0 + 1e-7;
    EXPECT_NE(warmupFingerprint(nudged_gating), fp);

    // A custom profile hiding under a stock benchmark's name must not
    // collide with the stock profile.
    SimulationOptions custom = base;
    custom.profile.loadFrac += 0.01;
    EXPECT_NE(warmupFingerprint(custom), fp);
}

TEST(WarmupFingerprintTest, PersistedKeysAndSnapshotBytesArePinned)
{
    // Snapshot file names, store keys and every --snapshot-dir already
    // on disk depend on these values; a change here orphans them all.
    const SimulationOptions mcf = makeOptions("mcf", false, 5000, 3000);
    EXPECT_EQ(warmupFingerprint(mcf), "43341e3161763ae0");
    EXPECT_EQ(warmupFingerprint(makeOptions("swim", true, 5000, 3000)),
              "2e8b5c9a03773aa6");
    SimulationOptions custom = mcf;
    custom.profile.loadFrac += 0.01;
    EXPECT_EQ(warmupFingerprint(custom), "e2dbe9ea6eefb529");

    // The snapshot bytes of a small warmed-up simulator (shrunk caches
    // and predictor, gzip with Time-Keeping), hashed with FNV-1a.
    SimulationOptions small = makeOptions("gzip", true, 2000, 3000);
    small.hierarchy.l1i.sizeBytes = 4 * 1024;
    small.hierarchy.l1d.sizeBytes = 4 * 1024;
    small.hierarchy.l2.sizeBytes = 32 * 1024;
    small.branch.bimodalEntries = 512;
    small.branch.gshareEntries = 512;
    small.branch.chooserEntries = 512;
    small.branch.historyBits = 9;
    small.branch.btbEntries = 256;
    Simulator warmed(small);
    warmed.warmup();
    const SnapshotBytes bytes = warmed.snapshot(warmupFingerprint(small));
    EXPECT_EQ(bytes.size(), 33279u);
    EXPECT_EQ(fnv1a64(bytes.view()), 0x44759d295dafbd91ULL);
}

} // namespace
} // namespace vsv
