/**
 * @file
 * End-to-end behavioural properties of the full stack - the
 * monotonicities and orderings the paper's figures rest on, asserted
 * on small windows so they hold for any future calibration.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/simulator.hh"

namespace vsv
{
namespace
{

SimulationResult
runOnce(SimulationOptions options)
{
    Simulator sim(options);
    return sim.run();
}

double
savingsWith(const SimulationResult &base, const std::string &bench,
            const VsvConfig &config, std::uint64_t insts,
            std::uint64_t warmup)
{
    SimulationOptions options = makeOptions(bench, false, insts, warmup);
    options.vsv = config;
    return makeComparison(base, runOnce(options)).powerSavingsPct;
}

TEST(VsvBehaviorTest, DownThresholdSavingsAreMonotonic)
{
    // Figure 5's backbone: lower thresholds never save less.
    const SimulationResult base =
        runOnce(makeOptions("mcf", false, 60000, 150000));
    double prev = 1e9;
    for (const std::uint32_t threshold : {0u, 1u, 3u, 5u}) {
        VsvConfig config = fsmVsvConfig();
        config.down = {threshold, 10};
        const double save =
            savingsWith(base, "mcf", config, 60000, 150000);
        EXPECT_LE(save, prev + 0.8) << "threshold " << threshold;
        prev = save;
    }
}

TEST(VsvBehaviorTest, UpPolicySavingsOrdering)
{
    // Figure 6's backbone: First-R <= FSM <= Last-R in savings.
    const SimulationResult base =
        runOnce(makeOptions("mcf", false, 60000, 150000));

    VsvConfig first = fsmVsvConfig();
    first.upPolicy = UpPolicy::FirstR;
    VsvConfig fsm = fsmVsvConfig();
    VsvConfig last = fsmVsvConfig();
    last.upPolicy = UpPolicy::LastR;

    const double s_first = savingsWith(base, "mcf", first, 60000, 150000);
    const double s_fsm = savingsWith(base, "mcf", fsm, 60000, 150000);
    const double s_last = savingsWith(base, "mcf", last, 60000, 150000);

    EXPECT_LE(s_first, s_fsm + 0.5);
    EXPECT_LE(s_fsm, s_last + 0.5);
    EXPECT_GT(s_last, s_first);  // the spread is real
}

TEST(VsvBehaviorTest, VsvNeverSpeedsThingsUp)
{
    // Per-instruction time with VSV can only grow.
    for (const char *bench : {"mcf", "ammp", "gzip"}) {
        const SimulationOptions base_opts =
            makeOptions(bench, false, 50000, 100000);
        const SimulationResult base = runOnce(base_opts);
        SimulationOptions vsv_opts = base_opts;
        vsv_opts.vsv = fsmVsvConfig();
        const VsvComparison cmp =
            makeComparison(base, runOnce(vsv_opts));
        EXPECT_GE(cmp.perfDegradationPct, -0.2) << bench;
    }
}

TEST(VsvBehaviorTest, TimekeepingCutsAmmpMissesEndToEnd)
{
    const SimulationResult base =
        runOnce(makeOptions("ammp", false, 100000, 200000));
    const SimulationResult tk =
        runOnce(makeOptions("ammp", true, 100000, 0));
    EXPECT_LT(tk.mr, 0.3 * base.mr);
}

TEST(VsvBehaviorTest, StridePrefetcherCutsAmmpMissesEndToEnd)
{
    const SimulationResult base =
        runOnce(makeOptions("ammp", false, 100000, 200000));
    SimulationOptions stride = makeOptions("ammp", false, 100000, 200000);
    stride.stridePrefetch = true;
    const SimulationResult with = runOnce(stride);
    EXPECT_LT(with.mr, 0.3 * base.mr);
}

TEST(VsvBehaviorTest, LeakierNodeKeepsVsvEffective)
{
    SimulationOptions base_opts = makeOptions("mcf", false, 50000,
                                              100000);
    base_opts.power.leakageFraction = 0.10;
    const SimulationResult base = runOnce(base_opts);

    SimulationOptions vsv_opts = base_opts;
    vsv_opts.vsv = fsmVsvConfig();
    const VsvComparison cmp = makeComparison(base, runOnce(vsv_opts));
    EXPECT_GT(cmp.powerSavingsPct, 10.0);
}

TEST(VsvBehaviorTest, IdealGatingShrinksVsvOpportunity)
{
    // If gating were perfect, stall cycles would already be nearly
    // free and VSV could only save clock-tree and active-op power.
    SimulationOptions dcg_opts = makeOptions("mcf", false, 50000,
                                             100000);
    const SimulationResult dcg_base = runOnce(dcg_opts);
    SimulationOptions dcg_vsv = dcg_opts;
    dcg_vsv.vsv = fsmVsvConfig();
    const double dcg_save =
        makeComparison(dcg_base, runOnce(dcg_vsv)).powerSavingsPct;

    SimulationOptions ideal_opts = dcg_opts;
    ideal_opts.power.gating = GatingStyle::Ideal;
    const SimulationResult ideal_base = runOnce(ideal_opts);
    SimulationOptions ideal_vsv = ideal_opts;
    ideal_vsv.vsv = fsmVsvConfig();
    const double ideal_save =
        makeComparison(ideal_base, runOnce(ideal_vsv)).powerSavingsPct;

    EXPECT_LT(ideal_save, dcg_save);
    EXPECT_GT(ideal_save, 0.0);  // clock tree still scales
}

} // namespace
} // namespace vsv
