/**
 * @file
 * Figure 6: effect of the up-FSM monitoring threshold (1, 3, 5
 * consecutive issuing half-speed cycles within a 10-cycle period)
 * compared against the First-R and Last-R heuristics, on the MR > 4
 * benchmarks. The down-FSM is fixed at threshold 3 / period 10.
 *
 * Flags: --instructions=N --warmup=N --benchmarks=a,b,c
 *        --jobs=N --json=path --seed=S
 */

#include <iostream>

#include "harness/experiment.hh"

using namespace vsv;

int
main(int argc, char **argv)
{
    const ExperimentArgs args = parseExperimentArgs(
        argc, argv, 400000, 300000, highMrBenchmarks());

    struct Variant
    {
        const char *label;
        UpPolicy policy;
        std::uint32_t threshold;
    };
    const Variant variants[] = {
        {"first-r", UpPolicy::FirstR, 0},
        {"up-1", UpPolicy::Fsm, 1},
        {"up-3", UpPolicy::Fsm, 3},
        {"up-5", UpPolicy::Fsm, 5},
        {"last-r", UpPolicy::LastR, 0},
    };

    // Six runs per benchmark: the baseline plus one per up-policy.
    std::vector<SweepJob> jobs;
    for (const auto &name : args.benchmarks) {
        SimulationOptions base = makeOptions(args, name);
        applyRunSeed(base, args.seed);
        jobs.push_back({name + "/base", base});
        for (const Variant &variant : variants) {
            SimulationOptions opts = base;
            opts.vsv = fsmVsvConfig();
            opts.vsv.upPolicy = variant.policy;
            if (variant.policy == UpPolicy::Fsm)
                opts.vsv.up = {variant.threshold, 10};
            jobs.push_back({name + "/" + variant.label, opts});
        }
    }

    const std::vector<SweepOutcome> outcomes =
        runSweep(args, "fig6_up_thresholds", jobs);

    if (reportSweepFailures(outcomes) != 0)
        return 1;
    const std::size_t stride = 1 + std::size(variants);

    std::cout << "Figure 6: Effects of thresholds on low-to-high "
                 "transitions (MR > 4 benchmarks)\n";
    std::cout << "(per variant: performance degradation % / power "
                 "savings %)\n\n";

    TextTable table({"bench", "First-R", "thr 1", "thr 3", "thr 5",
                     "Last-R"});

    for (std::size_t b = 0; b < args.benchmarks.size(); ++b) {
        const SimulationResult &base = outcomes[stride * b].result;
        std::vector<std::string> cells{args.benchmarks[b]};
        for (std::size_t v = 0; v < std::size(variants); ++v) {
            const VsvComparison cmp = makeComparison(
                base, outcomes[stride * b + 1 + v].result);
            cells.push_back(TextTable::num(cmp.perfDegradationPct, 1) +
                            "/" + TextTable::num(cmp.powerSavingsPct, 1));
        }
        table.addRow(cells);
    }
    table.print(std::cout);
    std::cout << "\npaper shape: Last-R saves most / degrades most, "
                 "First-R the opposite; monitoring\nwith threshold 3 "
                 "approaches Last-R's savings at near First-R's "
                 "degradation.\n";
    return 0;
}
