/**
 * @file
 * Tier-1 lockstep smoke gate (the `lockstep_smoke` ctest): a tiny
 * power-characterization grid, and two VSV-off runs that differ only
 * in dead VSV knobs, must each form a batch (>= 2 replicas behind one
 * front-end) and produce stats identical to serial execution. Deep
 * equivalence checks live in lockstep_equivalence_test.cc; this
 * binary is the fast always-on canary that the batching path stays
 * wired up.
 */

#include <gtest/gtest.h>

#include <vector>

#include "harness/experiment.hh"
#include "harness/lockstep.hh"
#include "harness/sweep.hh"

namespace vsv
{
namespace
{

TEST(LockstepSmoke, TinyGridBatchesAndMatchesSerial)
{
    SimulationOptions base = makeOptions("mcf", false, 8000, 3000);
    base.vsv = fsmVsvConfig();
    SimulationOptions leaky = base;
    leaky.power.leakageFraction = 0.05;
    SimulationOptions gated = base;
    gated.power.gatingEfficiency = 0.80;
    const std::vector<SweepJob> jobs{
        {"mcf/default", base},
        {"mcf/leak-0.05", leaky},
        {"mcf/ge-0.80", gated},
    };

    SweepRunner serial(1);
    const std::vector<SweepOutcome> want = serial.run(jobs);

    SweepRunner lockstep(1);
    lockstep.enableLockstep(16);
    const std::vector<SweepOutcome> got = lockstep.run(jobs);

    const LockstepStats &stats = lockstep.lockstepStats();
    EXPECT_TRUE(stats.enabled);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_GE(stats.largestBatch, 2u);
    EXPECT_EQ(stats.batchedRuns, jobs.size());
    EXPECT_EQ(stats.fallbacks, 0u);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].status, SweepStatus::Ok)
            << got[i].id << ": " << got[i].error;
        EXPECT_EQ(got[i].scalars, want[i].scalars) << got[i].id;
        EXPECT_EQ(got[i].statsJson, want[i].statsJson) << got[i].id;
    }
}

TEST(LockstepSmoke, VsvOffKnobsBatchAndMatchSerial)
{
    // No VSV knob acts while VSV is off, so two baselines that differ
    // in the FSM period and the ramp slew share one front-end.
    const SimulationOptions base = makeOptions("mcf", false, 8000, 3000);
    SimulationOptions knobs = base;
    knobs.vsv.down.period = 5;
    knobs.vsv.slewVoltsPerTick = 0.025;
    const std::vector<SweepJob> jobs{
        {"mcf/base", base},
        {"mcf/base-knobs", knobs},
    };

    SweepRunner serial(1);
    const std::vector<SweepOutcome> want = serial.run(jobs);

    SweepRunner lockstep(1);
    lockstep.enableLockstep(16);
    const std::vector<SweepOutcome> got = lockstep.run(jobs);

    const LockstepStats &stats = lockstep.lockstepStats();
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.batchedRuns, jobs.size());
    EXPECT_EQ(stats.fallbacks, 0u);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].status, SweepStatus::Ok)
            << got[i].id << ": " << got[i].error;
        EXPECT_EQ(got[i].scalars, want[i].scalars) << got[i].id;
        EXPECT_EQ(got[i].statsJson, want[i].statsJson) << got[i].id;
    }
}

} // namespace
} // namespace vsv
