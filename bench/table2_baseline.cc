/**
 * @file
 * Table 2: baseline IPC and L2 miss rate (demand misses per 1000
 * instructions) for every SPEC2K benchmark, without and with
 * Time-Keeping prefetching. Prints measured values next to the
 * paper's targets.
 *
 * Flags: --instructions=N --warmup=N --tk-warmup=N
 *        --benchmarks=a,b,c (default: all 26)
 *        --jobs=N --json=path --seed=S
 */

#include <cmath>
#include <iostream>

#include "harness/experiment.hh"

using namespace vsv;

namespace
{

/** "(" + text + ")", as appends: GCC 12 flags the operator+ chain
 *  with a false -Wrestrict in optimized builds. */
std::string
parenthesized(const std::string &text)
{
    std::string out = "(";
    out += text;
    out += ')';
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const ExperimentArgs args = parseExperimentArgs(
        argc, argv, 400000, 300000, spec2kBenchmarks());
    // Time-Keeping's correlations need longer functional training.
    const std::uint64_t tk_warmup = args.config.getUInt("tk-warmup", 0);

    // Two runs per benchmark: plain baseline and TK baseline.
    std::vector<SweepJob> jobs;
    for (const auto &name : args.benchmarks) {
        SimulationOptions base = makeOptions(args, name);
        applyRunSeed(base, args.seed);
        jobs.push_back({name + "/base", base});

        SimulationOptions tk = makeOptions(name, true,
                                           args.instructions, tk_warmup);
        tk.fastForward = args.fastForward;
        applyRunSeed(tk, args.seed);
        jobs.push_back({name + "/tk", tk});
    }

    const std::vector<SweepOutcome> outcomes =
        runSweep(args, "table2_baseline", jobs);

    if (reportSweepFailures(outcomes) != 0)
        return 1;

    std::cout << "Table 2: Baseline SPEC2K benchmark statistics\n";
    std::cout << "(MR = demand L2 misses per 1000 instructions; paper "
                 "targets in parentheses)\n\n";

    TextTable table({"bench", "IPC", "(paper)", "MR base", "(paper)",
                     "MR TK", "(paper)"});

    double sum_ipc_err = 0.0;
    int rows = 0;
    for (std::size_t b = 0; b < args.benchmarks.size(); ++b) {
        const std::string &name = args.benchmarks[b];
        const SimulationResult &base_result = outcomes[2 * b].result;
        const SimulationResult &tk_result = outcomes[2 * b + 1].result;

        const WorkloadProfile profile = spec2kProfile(name);
        table.addRow({name,
                      TextTable::num(base_result.ipc),
                      parenthesized(TextTable::num(profile.targetIpc)),
                      TextTable::num(base_result.mr, 1),
                      parenthesized(TextTable::num(profile.targetMrBase, 1)),
                      TextTable::num(tk_result.mr, 1),
                      parenthesized(TextTable::num(profile.targetMrTk, 1))});
        sum_ipc_err +=
            std::abs(base_result.ipc - profile.targetIpc) /
            profile.targetIpc;
        ++rows;
    }
    table.print(std::cout);
    std::cout << "\nmean relative IPC error vs paper: "
              << TextTable::num(100.0 * sum_ipc_err / rows, 1) << "%\n";
    return 0;
}
