/**
 * @file
 * Figure 7: impact of Time-Keeping prefetching on VSV. For every
 * benchmark, VSV-with-FSMs degradation/savings without TK (white
 * bars) and with TK in both the baseline and the VSV processor
 * (black bars), sorted by decreasing baseline MR.
 *
 * Flags: --instructions=N --warmup=N --tk-warmup=N --benchmarks=a,b,c
 *        --jobs=N --json=path --seed=S
 */

#include <algorithm>
#include <iostream>

#include "harness/experiment.hh"

using namespace vsv;

namespace
{

struct Row
{
    std::string name;
    double mrBase;
    double mrTk;
    VsvComparison noTk;
    VsvComparison withTk;
};

} // namespace

int
main(int argc, char **argv)
{
    const ExperimentArgs args = parseExperimentArgs(
        argc, argv, 400000, 300000, spec2kBenchmarks());
    const std::uint64_t tk_warmup = args.config.getUInt("tk-warmup", 0);

    // Four runs per benchmark: {base, VSV} x {no TK, TK}. Each pair
    // shares its baseline's cache/warmup state so the comparison is
    // VSV+TK vs base+TK, as in the paper.
    std::vector<SweepJob> jobs;
    for (const auto &name : args.benchmarks) {
        SimulationOptions base = makeOptions(args, name);
        applyRunSeed(base, args.seed);
        jobs.push_back({name + "/base", base});

        SimulationOptions vsv = base;
        vsv.vsv = fsmVsvConfig();
        jobs.push_back({name + "/fsm", vsv});

        SimulationOptions tk_base = makeOptions(name, true,
                                                args.instructions,
                                                tk_warmup);
        tk_base.fastForward = args.fastForward;
        applyRunSeed(tk_base, args.seed);
        jobs.push_back({name + "/tk-base", tk_base});

        SimulationOptions tk_vsv = tk_base;
        tk_vsv.vsv = fsmVsvConfig();
        jobs.push_back({name + "/tk-fsm", tk_vsv});
    }

    const std::vector<SweepOutcome> outcomes =
        runSweep(args, "fig7_timekeeping", jobs);

    if (reportSweepFailures(outcomes) != 0)
        return 1;

    std::vector<Row> rows;
    for (std::size_t b = 0; b < args.benchmarks.size(); ++b) {
        const SimulationResult &base = outcomes[4 * b + 0].result;
        const SimulationResult &tk_base = outcomes[4 * b + 2].result;
        Row row;
        row.name = args.benchmarks[b];
        row.mrBase = base.mr;
        row.mrTk = tk_base.mr;
        row.noTk = makeComparison(base, outcomes[4 * b + 1].result);
        row.withTk = makeComparison(tk_base, outcomes[4 * b + 3].result);
        rows.push_back(row);
    }

    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row &a, const Row &b) {
                         return a.mrBase > b.mrBase;
                     });

    std::cout << "Figure 7: Impact of Time-Keeping prefetching on VSV\n";
    std::cout << "(deg = performance degradation %, save = power "
                 "savings %; TK runs compare VSV+TK vs base+TK)\n\n";

    TextTable table({"bench", "MR", "MR+TK", "deg noTK", "deg TK",
                     "save noTK", "save TK"});
    double high_save_no = 0, high_save_tk = 0, high_deg_tk = 0;
    double all_save_tk = 0, all_deg_tk = 0;
    int high_n = 0;
    for (const Row &row : rows) {
        table.addRow({row.name,
                      TextTable::num(row.mrBase, 1),
                      TextTable::num(row.mrTk, 1),
                      TextTable::num(row.noTk.perfDegradationPct, 1),
                      TextTable::num(row.withTk.perfDegradationPct, 1),
                      TextTable::num(row.noTk.powerSavingsPct, 1),
                      TextTable::num(row.withTk.powerSavingsPct, 1)});
        all_save_tk += row.withTk.powerSavingsPct;
        all_deg_tk += row.withTk.perfDegradationPct;
        if (row.mrBase > 4.0) {
            high_save_no += row.noTk.powerSavingsPct;
            high_save_tk += row.withTk.powerSavingsPct;
            high_deg_tk += row.withTk.perfDegradationPct;
            ++high_n;
        }
    }
    table.print(std::cout);

    std::cout << '\n';
    if (high_n > 0) {
        std::cout << "MR>4 average: save "
                  << TextTable::num(high_save_no / high_n, 1)
                  << "% without TK vs "
                  << TextTable::num(high_save_tk / high_n, 1)
                  << "% with TK (deg "
                  << TextTable::num(high_deg_tk / high_n, 1) << "%)\n";
    }
    std::cout << "all-benchmark average with TK: save "
              << TextTable::num(all_save_tk / rows.size(), 1) << "% / deg "
              << TextTable::num(all_deg_tk / rows.size(), 1) << "%\n";
    std::cout << "\npaper: MR>4 20.7% -> 12.1% save at ~2.1% deg; all "
                 "benchmarks 4.1% save / 0.9% deg with TK\n";
    return 0;
}
