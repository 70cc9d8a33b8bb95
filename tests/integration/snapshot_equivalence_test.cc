/**
 * @file
 * Proof that the warmup snapshot cache is an optimization, not a
 * model change: every statistic the simulator exports must be
 * bit-identical whether a run warmed up from scratch or restored a
 * cached post-warmup snapshot, across the full Figure 4 grid (all
 * SPEC2K benchmarks x {baseline, VSV without FSMs, VSV with FSMs}),
 * under a multi-threaded sweep - and the cache counters must prove
 * exactly one warmup happened per benchmark.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/warmup_cache.hh"
#include "workload/workload.hh"

namespace vsv
{
namespace
{

/** The Figure 4 job list (3 configs per benchmark) at test scale. */
std::vector<SweepJob>
figure4Grid()
{
    std::vector<SweepJob> jobs;
    for (const auto &name : spec2kBenchmarks()) {
        SimulationOptions base = makeOptions(name, false, 20000, 5000);
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

void
expectIdentical(const std::vector<SweepOutcome> &fresh,
                const std::vector<SweepOutcome> &cached)
{
    ASSERT_EQ(fresh.size(), cached.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        const SweepOutcome &a = fresh[i];
        const SweepOutcome &b = cached[i];
        ASSERT_EQ(a.id, b.id);

        // Every registered scalar, bit for bit.
        EXPECT_EQ(a.scalars, b.scalars) << a.id;
        // The full stats dump, distributions included.
        EXPECT_EQ(a.statsJson, b.statsJson) << a.id;

        // Result fields, minus the host-dependent throughput block.
        EXPECT_EQ(a.result.instructions, b.result.instructions) << a.id;
        EXPECT_EQ(a.result.ticks, b.result.ticks) << a.id;
        EXPECT_EQ(a.result.pipelineCycles, b.result.pipelineCycles)
            << a.id;
        EXPECT_EQ(a.result.downTransitions, b.result.downTransitions)
            << a.id;
        EXPECT_EQ(a.result.upTransitions, b.result.upTransitions)
            << a.id;
        EXPECT_DOUBLE_EQ(a.result.ipc, b.result.ipc) << a.id;
        EXPECT_DOUBLE_EQ(a.result.mr, b.result.mr) << a.id;
        EXPECT_DOUBLE_EQ(a.result.energyPj, b.result.energyPj) << a.id;
        EXPECT_DOUBLE_EQ(a.result.avgPowerW, b.result.avgPowerW)
            << a.id;
        EXPECT_DOUBLE_EQ(a.result.lowModeFraction,
                         b.result.lowModeFraction)
            << a.id;
    }
}

TEST(SnapshotEquivalenceTest, Figure4GridIsBitIdentical)
{
    const std::vector<SweepJob> jobs = figure4Grid();

    // --jobs 8 on both sides: the cached sweep exercises the
    // first-worker-computes path, with restores queued the moment
    // their snapshot is published and running beside other warmups.
    SweepRunner fresh_runner(8);
    const std::vector<SweepOutcome> fresh = fresh_runner.run(jobs);

    SweepRunner cached_runner(8);
    WarmupSnapshotCache cache;
    cached_runner.enableWarmupSnapshots(cache);
    const std::vector<SweepOutcome> cached = cached_runner.run(jobs);

    expectIdentical(fresh, cached);

    // Exactly one warmup per benchmark; the other two configs of each
    // triple restored from it.
    const std::size_t benchmarks = spec2kBenchmarks().size();
    const SnapshotCacheStats stats = cache.stats();
    EXPECT_TRUE(stats.enabled);
    EXPECT_EQ(stats.misses, benchmarks);
    EXPECT_EQ(stats.hits, 2 * benchmarks);
    EXPECT_EQ(stats.diskHits, 0u);
    EXPECT_EQ(stats.failures, 0u);
}

TEST(SnapshotEquivalenceTest, TimekeepingWarmupIsBitIdentical)
{
    // The TK prefetcher's trained state (correlation history, pending
    // prefetches in flight at the warmup boundary) is the largest and
    // most fragile part of a snapshot; prove the restore is exact on
    // the long trained warmup the cache exists to amortize.
    std::vector<SweepJob> jobs;
    for (const std::string name : {"mcf", "art"}) {
        SimulationOptions base = makeOptions(name, true, 20000, 5000);
        jobs.push_back({name + "/tk-base", base});
        SimulationOptions with_fsm = base;
        with_fsm.vsv = fsmVsvConfig();
        jobs.push_back({name + "/tk-fsm", with_fsm});
    }

    SweepRunner fresh_runner(4);
    const std::vector<SweepOutcome> fresh = fresh_runner.run(jobs);

    SweepRunner cached_runner(4);
    WarmupSnapshotCache cache;
    cached_runner.enableWarmupSnapshots(cache);
    const std::vector<SweepOutcome> cached = cached_runner.run(jobs);

    expectIdentical(fresh, cached);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().failures, 0u);
}

} // namespace
} // namespace vsv
