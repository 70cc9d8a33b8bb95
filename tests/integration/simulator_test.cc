/**
 * @file
 * End-to-end smoke and behaviour tests of the full simulator.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/simulator.hh"

namespace vsv
{
namespace
{

SimulationOptions
smallOptions(const std::string &bench, bool tk = false)
{
    SimulationOptions options = makeOptions(bench, tk, 50000, 20000);
    return options;
}

/** A baseline run and an FSM-VSV run of `bench`, as deltas. */
VsvComparison
compareFsmVsv(const std::string &bench)
{
    const SimulationOptions base = smallOptions(bench);
    SimulationOptions vsv = base;
    vsv.vsv = fsmVsvConfig();
    return makeComparison(Simulator(base).run(), Simulator(vsv).run());
}

TEST(SimulatorTest, BaselineRunsToCompletion)
{
    Simulator sim(smallOptions("gzip"));
    const SimulationResult result = sim.run();
    // Commit width allows a few instructions of overshoot.
    EXPECT_GE(result.instructions, 50000u);
    EXPECT_LE(result.instructions, 50008u);
    EXPECT_GT(result.ipc, 0.1);
    EXPECT_LE(result.ipc, 8.0);
    EXPECT_GT(result.avgPowerW, 0.0);
}

TEST(SimulatorTest, BaselineNeverLeavesHighPowerMode)
{
    Simulator sim(smallOptions("mcf"));
    const SimulationResult result = sim.run();
    EXPECT_EQ(result.downTransitions, 0u);
    EXPECT_EQ(result.upTransitions, 0u);
    EXPECT_DOUBLE_EQ(result.lowModeFraction, 0.0);
}

TEST(SimulatorTest, VsvEntersLowPowerModeOnMissyWorkload)
{
    SimulationOptions options = smallOptions("mcf");
    options.vsv = fsmVsvConfig();
    Simulator sim(options);
    const SimulationResult result = sim.run();
    EXPECT_GT(result.downTransitions, 0u);
    EXPECT_GT(result.lowModeFraction, 0.1);
}

TEST(SimulatorTest, VsvSavesPowerOnMcf)
{
    const VsvComparison cmp = compareFsmVsv("mcf");
    EXPECT_GT(cmp.powerSavingsPct, 5.0);
    EXPECT_LT(cmp.perfDegradationPct, 15.0);
}

TEST(SimulatorTest, VsvDoesNothingOnCacheResidentWorkload)
{
    const VsvComparison cmp = compareFsmVsv("crafty");
    EXPECT_NEAR(cmp.powerSavingsPct, 0.0, 1.0);
    EXPECT_NEAR(cmp.perfDegradationPct, 0.0, 1.0);
}

TEST(SimulatorTest, DeterministicAcrossRuns)
{
    Simulator a(smallOptions("vpr"));
    Simulator b(smallOptions("vpr"));
    const SimulationResult ra = a.run();
    const SimulationResult rb = b.run();
    EXPECT_EQ(ra.ticks, rb.ticks);
    EXPECT_DOUBLE_EQ(ra.energyPj, rb.energyPj);
    EXPECT_DOUBLE_EQ(ra.mr, rb.mr);
}

} // namespace
} // namespace vsv
