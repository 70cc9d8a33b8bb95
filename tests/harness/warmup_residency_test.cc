/**
 * @file
 * The warmup cache's residency contract under SweepRunner: a
 * fingerprint's snapshot lives only while a declared run still needs
 * it, a single-use fingerprint is never serialized unless it goes to
 * disk, a parallel sweep holds at most one snapshot per worker, and a
 * failed owner still hands its runs to the pool - all with results
 * and counters equal to an uncached and a serial sweep.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/warmup_cache.hh"
#include "workload/workload.hh"

namespace vsv
{
namespace
{

/**
 * `fingerprints` benchmarks with `runs` (1 to 3) VSV configurations
 * each; the configurations of a benchmark share one warmup.
 */
std::vector<SweepJob>
grid(std::size_t fingerprints, std::size_t runs)
{
    std::vector<SweepJob> jobs;
    const std::vector<std::string> &names = spec2kBenchmarks();
    for (std::size_t f = 0; f < fingerprints; ++f) {
        const std::string &name = names.at(f);
        const SimulationOptions base = makeOptions(name, false, 2000, 5000);
        jobs.push_back({name + "/base", base});
        if (runs >= 2) {
            SimulationOptions no_fsm = base;
            no_fsm.vsv = noFsmVsvConfig();
            jobs.push_back({name + "/no-fsm", no_fsm});
        }
        if (runs >= 3) {
            SimulationOptions fsm = base;
            fsm.vsv = fsmVsvConfig();
            jobs.push_back({name + "/fsm", fsm});
        }
    }
    return jobs;
}

/**
 * runner.run(jobs) on its own thread. A sweep that has not returned
 * within a minute has hung; it cannot be joined, so the test binary
 * aborts, which fails the test.
 */
std::vector<SweepOutcome>
runWithin(SweepRunner &runner, const std::vector<SweepJob> &jobs)
{
    std::packaged_task<std::vector<SweepOutcome>()> sweep(
        [&runner, &jobs] { return runner.run(jobs); });
    std::future<std::vector<SweepOutcome>> done = sweep.get_future();
    std::thread thread(std::move(sweep));
    if (done.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
        std::fprintf(stderr, "SweepRunner::run() did not return\n");
        std::abort();
    }
    thread.join();
    return done.get();
}

void
expectSameResults(const std::vector<SweepOutcome> &got,
                  const std::vector<SweepOutcome> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].status, want[i].status) << got[i].id;
        EXPECT_EQ(got[i].id, want[i].id);
        EXPECT_EQ(got[i].scalars, want[i].scalars) << got[i].id;
        EXPECT_EQ(got[i].statsJson, want[i].statsJson) << got[i].id;
        EXPECT_EQ(got[i].result.ticks, want[i].result.ticks);
        EXPECT_EQ(got[i].result.energyPj, want[i].result.energyPj);
    }
}

TEST(WarmupResidencyTest, SingleUseFingerprintIsNeverSerialized)
{
    const std::vector<SweepJob> jobs = grid(4, 1);
    SweepRunner runner(2);
    WarmupSnapshotCache cache;
    runner.enableWarmupSnapshots(cache);
    const std::vector<SweepOutcome> outcomes = runWithin(runner, jobs);
    for (const SweepOutcome &out : outcomes)
        EXPECT_EQ(out.status, SweepStatus::Ok) << out.id << out.error;

    // Each warmup is still computed, and counted, once.
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.stats().hits, 0u);
    const SnapshotResidency residency = cache.residency();
    EXPECT_EQ(residency.encoded, 0u);
    EXPECT_EQ(residency.peakLive, 0u);
}

TEST(WarmupResidencyTest, SnapshotDirStillPersistsSingleUseWarmups)
{
    const std::string dir =
        testing::TempDir() + "vsv_warmup_residency_disk";
    std::filesystem::remove_all(dir);
    const std::vector<SweepJob> jobs = grid(3, 1);
    {
        SweepRunner runner(2);
        WarmupSnapshotCache cache(dir);
        runner.enableWarmupSnapshots(cache);
        runWithin(runner, jobs);
        EXPECT_EQ(cache.residency().encoded, 3u);
        EXPECT_EQ(cache.residency().live, 0u);
    }
    for (const SweepJob &job : jobs) {
        EXPECT_TRUE(std::filesystem::exists(
            dir + "/" + warmupFingerprint(job.options) + ".vsvsnap"))
            << job.id;
    }

    // The next campaign restores all three from disk.
    SweepRunner runner(2);
    WarmupSnapshotCache cache(dir);
    runner.enableWarmupSnapshots(cache);
    runWithin(runner, jobs);
    EXPECT_EQ(cache.stats().diskHits, 3u);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(cache.residency().live, 0u);
    std::filesystem::remove_all(dir);
}

TEST(WarmupResidencyTest, LiveSnapshotsStayWithinOnePerWorker)
{
    // The bound: a worker starts a new owner only once the ready queue
    // is empty, so every fingerprint holding bytes at that moment has
    // a run in flight on another worker. Hence a sweep never holds
    // more snapshots than it has workers. An order with every owner
    // ahead of every restore holds all eight here at once.
    const unsigned workers = 2;
    const std::vector<SweepJob> jobs = grid(8, 3);
    SweepRunner runner(workers);
    WarmupSnapshotCache cache;
    runner.enableWarmupSnapshots(cache);
    const std::vector<SweepOutcome> outcomes = runWithin(runner, jobs);
    for (const SweepOutcome &out : outcomes)
        EXPECT_EQ(out.status, SweepStatus::Ok) << out.id << out.error;

    const SnapshotResidency residency = cache.residency();
    EXPECT_GE(residency.peakLive, 1u);
    EXPECT_LE(residency.peakLive, workers);
    EXPECT_EQ(residency.encoded, 8u);
    // After run() no declared fingerprint's bytes remain.
    EXPECT_EQ(residency.live, 0u);
    EXPECT_EQ(cache.stats().misses, 8u);
    EXPECT_EQ(cache.stats().hits, 16u);
}

TEST(WarmupResidencyTest, MatchesUncachedAndSerialSweeps)
{
    const std::vector<SweepJob> jobs = grid(8, 3);
    const auto cached = [&jobs](unsigned threads) {
        SweepRunner runner(threads);
        WarmupSnapshotCache cache;
        runner.enableWarmupSnapshots(cache);
        std::vector<SweepOutcome> outcomes = runWithin(runner, jobs);
        EXPECT_EQ(cache.residency().live, 0u) << threads;
        return std::make_pair(cache.stats(), std::move(outcomes));
    };
    const auto [parallel_stats, parallel] = cached(2);
    const auto [serial_stats, serial] = cached(1);
    SweepRunner uncached_runner(2);
    const std::vector<SweepOutcome> uncached =
        runWithin(uncached_runner, jobs);

    expectSameResults(parallel, uncached);
    expectSameResults(serial, uncached);
    EXPECT_EQ(parallel_stats.hits, serial_stats.hits);
    EXPECT_EQ(parallel_stats.misses, serial_stats.misses);
    EXPECT_EQ(parallel_stats.diskHits, serial_stats.diskHits);
    EXPECT_EQ(parallel_stats.failures, serial_stats.failures);
    EXPECT_EQ(serial_stats.misses, 8u);
    EXPECT_EQ(serial_stats.hits, 16u);
}

/**
 * Make a job's measured window fail: it asks the interval-stats
 * sampler for a statistic no component registers, so run() fatal()s
 * after the warmup. None of this enters the warmup fingerprint.
 */
void
breakMeasurement(SweepJob &job)
{
    job.options.trace.path =
        testing::TempDir() + "vsv-warmup-residency-test.json";
    job.options.trace.intervalTicks = 1000;
    job.options.trace.intervalScalars = {
        "vsv-warmup-residency-test.no.such.stat"};
}

TEST(WarmupResidencyTest, FatalOwnerStillReleasesItsConsumers)
{
    // Every run of the first benchmark carries the bad configuration;
    // the second benchmark's runs are healthy.
    std::vector<SweepJob> jobs = grid(2, 3);
    for (std::size_t i = 0; i < 3; ++i)
        breakMeasurement(jobs[i]);

    SweepRunner runner(2);
    WarmupSnapshotCache cache;
    runner.enableWarmupSnapshots(cache);
    const std::vector<SweepOutcome> outcomes = runWithin(runner, jobs);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(outcomes[i].status, SweepStatus::Error) << outcomes[i].id;
        EXPECT_NE(outcomes[i].error.find("vsv-warmup-residency-test"),
                  std::string::npos)
            << outcomes[i].error;
        EXPECT_EQ(outcomes[i].attempts, 1u);
    }
    for (std::size_t i = 3; i < 6; ++i)
        EXPECT_EQ(outcomes[i].status, SweepStatus::Ok) << outcomes[i].id;
    EXPECT_EQ(cache.residency().live, 0u);
}

TEST(WarmupResidencyTest, OwnerAbortedDuringWarmupReleasesItsConsumers)
{
    // An abort hook fires inside the owner's warmup, before anything
    // is published: its consumers warm up fresh, hit the same hook and
    // come back as Timeout outcomes.
    std::vector<SweepJob> jobs = grid(2, 3);
    for (std::size_t i = 0; i < 3; ++i)
        jobs[i].options.abortHook = [] { return true; };

    SweepRunner runner(2);
    WarmupSnapshotCache cache;
    runner.enableWarmupSnapshots(cache);
    const std::vector<SweepOutcome> outcomes = runWithin(runner, jobs);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(outcomes[i].status, SweepStatus::Timeout) << outcomes[i].id;
    for (std::size_t i = 3; i < 6; ++i)
        EXPECT_EQ(outcomes[i].status, SweepStatus::Ok) << outcomes[i].id;
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.residency().live, 0u);
}

TEST(WarmupResidencyTest, OwnerReleasedBeforeAcquireSettlesAsFailed)
{
    // A job can end without ever reaching acquire(); releasing its use
    // must still settle the fingerprint, or its consumers would never
    // be queued.
    const SimulationOptions options = makeOptions("mcf", false, 2000, 5000);
    const std::string fingerprint = warmupFingerprint(options);
    const SweepOutcome reference = SweepRunner::runOne({"mcf", options});

    WarmupSnapshotCache cache;
    int settled = 0;
    cache.declareUses(fingerprint, 3, [&settled] { ++settled; });
    EXPECT_EQ(settled, 0);
    cache.releaseUse(fingerprint);
    EXPECT_EQ(settled, 1);

    // The other two warm up fresh, as waiters on a failed computation.
    for (int i = 0; i < 2; ++i) {
        const SweepOutcome out =
            SweepRunner::runOne({"mcf", options}, &cache);
        EXPECT_EQ(out.statsJson, reference.statsJson);
        cache.releaseUse(fingerprint);
    }
    EXPECT_EQ(settled, 1);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(cache.residency().encoded, 0u);
    EXPECT_EQ(cache.residency().live, 0u);
}

TEST(WarmupResidencyTest, LastDeclaredRestoreDropsTheBytes)
{
    const SimulationOptions options = makeOptions("mcf", false, 2000, 5000);
    const std::string fingerprint = warmupFingerprint(options);
    const SweepOutcome reference = SweepRunner::runOne({"mcf", options});

    WarmupSnapshotCache cache;
    cache.declareUses(fingerprint, 3, [] {});
    SweepRunner::runOne({"mcf", options}, &cache);
    EXPECT_EQ(cache.residency().live, 1u);
    SweepRunner::runOne({"mcf", options}, &cache);
    EXPECT_EQ(cache.residency().live, 1u);
    // The third job's restore takes the last reference, before any
    // job has ended.
    const SweepOutcome last = SweepRunner::runOne({"mcf", options}, &cache);
    EXPECT_EQ(cache.residency().live, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(last.statsJson, reference.statsJson);

    // A retry after the drop warms up fresh, with the same result.
    const SweepOutcome retry =
        SweepRunner::runOne({"mcf", options}, &cache);
    EXPECT_EQ(retry.statsJson, reference.statsJson);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 1u);
    for (int i = 0; i < 3; ++i)
        cache.releaseUse(fingerprint);
    EXPECT_EQ(cache.residency().live, 0u);
    EXPECT_EQ(cache.residency().peakLive, 1u);
}

TEST(WarmupResidencyTest, DeclaringAPublishedFingerprintSettlesAtOnce)
{
    const SimulationOptions options = makeOptions("ammp", false, 2000, 5000);
    const std::string fingerprint = warmupFingerprint(options);

    // An undeclared acquire() keeps its snapshot for later callers.
    WarmupSnapshotCache cache;
    const SweepOutcome first = SweepRunner::runOne({"ammp", options}, &cache);
    EXPECT_EQ(cache.residency().live, 1u);

    int settled = 0;
    cache.declareUses(fingerprint, 1, [&settled] { ++settled; });
    EXPECT_EQ(settled, 1);
    const SweepOutcome second =
        SweepRunner::runOne({"ammp", options}, &cache);
    cache.releaseUse(fingerprint);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(second.statsJson, first.statsJson);
}

} // namespace
} // namespace vsv
