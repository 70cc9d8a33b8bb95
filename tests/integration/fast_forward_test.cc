/**
 * @file
 * Proof that the idle-tick fast-forward is an optimization, not a
 * model change: every statistic the simulator exports must be
 * bit-identical with fast-forward on and off, across the full
 * Figure 4 grid (all SPEC2K benchmarks x {baseline, VSV without
 * FSMs, VSV with FSMs}), including under a multi-threaded sweep.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "harness/experiment.hh"
#include "harness/simulator.hh"
#include "harness/sweep.hh"
#include "workload/workload.hh"

namespace vsv
{
namespace
{

/** The Figure 4 job list (3 configs per benchmark) at test scale. */
std::vector<SweepJob>
figure4Grid(bool fast_forward)
{
    std::vector<SweepJob> jobs;
    for (const auto &name : spec2kBenchmarks()) {
        SimulationOptions base = makeOptions(name, false, 20000, 5000);
        base.fastForward = fast_forward;
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

TEST(FastForwardTest, Figure4GridIsBitIdentical)
{
    // --jobs 8 on both sides: the comparison also re-checks that the
    // threaded sweep returns outcomes in submission order.
    SweepRunner runner(8);
    const std::vector<SweepOutcome> on = runner.run(figure4Grid(true));
    const std::vector<SweepOutcome> off = runner.run(figure4Grid(false));
    ASSERT_EQ(on.size(), off.size());

    for (std::size_t i = 0; i < on.size(); ++i) {
        const SweepOutcome &a = on[i];
        const SweepOutcome &b = off[i];
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

        EXPECT_EQ(b.result.fastForwardedTicks, 0u) << a.id;
    }
}

TEST(FastForwardTest, EngagesOnStallHeavyWorkload)
{
    // mcf spends most of its time waiting on L2 misses; the
    // fast-forward must actually skip ticks there or the optimization
    // is dead code.
    SimulationOptions options = makeOptions("mcf", false, 30000, 5000);
    options.fastForward = true;
    const SweepOutcome out = SweepRunner::runOne({"mcf", options});
    EXPECT_GT(out.result.fastForwardedTicks, 0u);
    EXPECT_GT(out.result.ffTickFraction, 0.0);
    EXPECT_LE(out.result.ffTickFraction, 1.0);
}

TEST(FastForwardTest, EngagesInLowPowerSteadyState)
{
    // With VSV enabled, steady Low mode (half-speed clock) is where
    // stall time concentrates; the skipper must handle the divided
    // pipeline-edge pattern there.
    SimulationOptions options = makeOptions("mcf", false, 30000, 5000);
    options.vsv = fsmVsvConfig();
    options.fastForward = true;
    const SweepOutcome out = SweepRunner::runOne({"mcf-fsm", options});
    EXPECT_GT(out.result.downTransitions, 0u);
    EXPECT_GT(out.result.fastForwardedTicks, 0u);
}

TEST(FastForwardTest, VsvOffRunIgnoresTheMissDetectLatency)
{
    // With VSV off no controller reads a miss detection, so none is
    // scheduled: the detection latency can move neither the stats,
    // the interval stats nor how far idle ticks fast-forward.
    struct Run
    {
        std::string stats;
        std::vector<TraceEvent> intervals;
        double ffTickFraction;
    };
    const auto run = [](std::uint32_t detect_ticks) {
        SimulationOptions options = makeOptions("mcf", false, 20000, 5000);
        options.hierarchy.l2MissDetectTicks = detect_ticks;
        const std::string path = testing::TempDir() + "vsv_ff_detect_" +
                                 std::to_string(detect_ticks) + ".json";
        options.trace.path = path;
        options.trace.categories =
            static_cast<std::uint32_t>(TraceCategory::Interval);
        options.trace.intervalTicks = 2000;
        Simulator sim(options);
        Run out;
        out.ffTickFraction = sim.run().ffTickFraction;
        std::ostringstream stats;
        sim.stats().dumpJson(stats);
        out.stats = stats.str();
        sim.trace()->visit(
            [&](const TraceEvent &ev) { out.intervals.push_back(ev); });
        std::remove(path.c_str());
        return out;
    };
    const Run early = run(4);
    const Run late = run(0);  // the default: the L2 hit latency
    EXPECT_GT(early.ffTickFraction, 0.0);
    EXPECT_EQ(early.ffTickFraction, late.ffTickFraction);
    EXPECT_EQ(early.stats, late.stats);
    ASSERT_FALSE(early.intervals.empty());
    ASSERT_EQ(early.intervals.size(), late.intervals.size());
    for (std::size_t i = 0; i < early.intervals.size(); ++i) {
        EXPECT_EQ(early.intervals[i].ts, late.intervals[i].ts) << i;
        EXPECT_EQ(early.intervals[i].kind, late.intervals[i].kind) << i;
        EXPECT_EQ(early.intervals[i].a, late.intervals[i].a) << i;
        EXPECT_EQ(early.intervals[i].b, late.intervals[i].b) << i;
    }
}

TEST(FastForwardTest, DisabledModeReportsNoSkippedTicks)
{
    SimulationOptions options = makeOptions("mcf", false, 20000, 5000);
    options.fastForward = false;
    const SweepOutcome out = SweepRunner::runOne({"mcf-off", options});
    EXPECT_EQ(out.result.fastForwardedTicks, 0u);
    EXPECT_DOUBLE_EQ(out.result.ffTickFraction, 0.0);
}

TEST(FastForwardTest, TimekeepingRunsAreBitIdentical)
{
    // The TK prefetcher's periodic history sweep bounds the skip
    // horizon; make sure that interaction is exact too.
    SimulationOptions on = makeOptions("art", true, 20000, 0);
    on.fastForward = true;
    SimulationOptions off = on;
    off.fastForward = false;
    const SweepOutcome a = SweepRunner::runOne({"art-tk", on});
    const SweepOutcome b = SweepRunner::runOne({"art-tk", off});
    EXPECT_EQ(a.scalars, b.scalars);
    EXPECT_EQ(a.statsJson, b.statsJson);
    EXPECT_EQ(a.result.ticks, b.result.ticks);
    EXPECT_DOUBLE_EQ(a.result.energyPj, b.result.energyPj);
}

/**
 * A core geometry away from Table 1 that stresses one structure's
 * sizing, with the FNV-1a 64 of its full stats dump, pinned so that
 * any change to a simulated number in that geometry fails here.
 */
struct CoreGeometry
{
    const char *name;
    SimulationOptions options;
    std::uint64_t statsDigest;
};

void
PrintTo(const CoreGeometry &geometry, std::ostream *os)
{
    *os << geometry.name;
}

/** An 80-cycle L1D hit (a 128-slot completion wheel) under an
 *  IntDiv-heavy stream, with VSV and its FSMs on. */
CoreGeometry
slowL1dIntDiv()
{
    SimulationOptions options = makeOptions("gzip", false, 20000, 5000);
    options.profile.intDivFrac = 0.3;
    options.hierarchy.l1d.hitLatency = 80;
    options.vsv = fsmVsvConfig();
    return {"slow_l1d_intdiv", options, 0xc281201ba871dc57ULL};
}

/** A 5-slot fetch ring behind an 8-wide fetch, so fetch fills the
 *  ring and its head and tail wrap at shifting slots, on a
 *  stall-heavy VSV run. */
CoreGeometry
narrowFetchRing()
{
    SimulationOptions options = makeOptions("mcf", false, 20000, 5000);
    options.core.fetchQueueSize = 5;
    options.core.fetchWidth = 8;
    options.vsv = fsmVsvConfig();
    return {"narrow_fetch_ring", options, 0x363449c626b525beULL};
}

class CoreGeometryTest : public testing::TestWithParam<CoreGeometry>
{
};

TEST_P(CoreGeometryTest, IsBitIdenticalAndPinned)
{
    SimulationOptions on = GetParam().options;
    on.fastForward = true;
    SimulationOptions off = on;
    off.fastForward = false;
    const SweepOutcome a = SweepRunner::runOne({GetParam().name, on});
    const SweepOutcome b = SweepRunner::runOne({GetParam().name, off});
    ASSERT_EQ(a.status, SweepStatus::Ok) << a.error;
    ASSERT_EQ(b.status, SweepStatus::Ok) << b.error;
    EXPECT_GT(a.result.fastForwardedTicks, 0u);
    EXPECT_EQ(a.statsJson, b.statsJson);
    EXPECT_EQ(a.result.ticks, b.result.ticks);
    EXPECT_EQ(fnv1a64(a.statsJson), GetParam().statsDigest)
        << std::hex << fnv1a64(a.statsJson);
}

INSTANTIATE_TEST_SUITE_P(
    FastForwardTest, CoreGeometryTest,
    testing::Values(slowL1dIntDiv(), narrowFetchRing()),
    [](const testing::TestParamInfo<CoreGeometry> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace vsv
