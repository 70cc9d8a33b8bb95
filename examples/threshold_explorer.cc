/**
 * @file
 * Threshold explorer: sweeps the down-FSM and up-FSM thresholds for
 * one benchmark and prints the power/performance trade-off surface -
 * the experiment a user would run to pick FSM parameters for their
 * own workload (the paper's Sections 6.2 and 6.3 condensed into one
 * tool).
 *
 *   ./threshold_explorer [benchmark] [--instructions=N] [--jobs=N]
 *                        [--json=path] [--seed=S]
 */

#include <iostream>

#include "harness/experiment.hh"

using namespace vsv;

int
main(int argc, char **argv)
{
    const ExperimentArgs args = parseExperimentArgs(argc, argv,
                                                    200000, 0);
    const std::string bench =
        args.positional.empty() ? "lucas" : args.positional[0];

    const std::uint32_t downs[] = {0, 1, 3, 5};
    const std::uint32_t ups[] = {1, 3, 5};

    // The baseline plus the full down x up threshold grid.
    SimulationOptions base = makeOptions(args, bench);
    applyRunSeed(base, args.seed);
    std::vector<SweepJob> jobs;
    jobs.push_back({bench + "/base", base});
    for (const std::uint32_t down : downs) {
        for (const std::uint32_t up : ups) {
            SimulationOptions opts = base;
            opts.vsv = fsmVsvConfig();
            opts.vsv.down = {down, 10};
            opts.vsv.up = {up, 10};
            jobs.push_back({bench + "/down" + std::to_string(down) +
                                "-up" + std::to_string(up),
                            opts});
        }
    }

    const std::vector<SweepOutcome> outcomes =
        runSweep(args, "threshold_explorer", jobs);

    if (reportSweepFailures(outcomes) != 0)
        return 1;
    const SimulationResult &base_result = outcomes[0].result;

    std::cout << "Threshold exploration for '" << bench << "' (baseline "
              << "IPC " << TextTable::num(base_result.ipc) << ", MR "
              << TextTable::num(base_result.mr, 1) << ")\n";
    std::cout << "cells: performance degradation % / power savings %\n\n";

    TextTable table({"down\\up", "1", "3", "5"});
    std::size_t next = 1;
    for (const std::uint32_t down : downs) {
        std::vector<std::string> cells{std::to_string(down)};
        for (std::size_t u = 0; u < std::size(ups); ++u) {
            const VsvComparison cmp = makeComparison(
                base_result, outcomes[next++].result);
            cells.push_back(TextTable::num(cmp.perfDegradationPct, 1) +
                            "/" + TextTable::num(cmp.powerSavingsPct, 1));
        }
        table.addRow(cells);
    }
    table.print(std::cout);
    std::cout << "\nLower-left favors power; upper-right favors "
                 "performance. The paper picks down 3 / up 3.\n";
    return 0;
}
