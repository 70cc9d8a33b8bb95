/**
 * @file
 * vsvsim: the full-featured command-line driver. Runs one or more
 * benchmarks under an arbitrary processor/VSV configuration and
 * prints either a summary, the complete statistics dump, or CSV rows
 * - the tool a downstream user scripts their own sweeps with.
 *
 * Usage:
 *   vsvsim <benchmark> [benchmark...] [options]
 *
 * Common options (all --key=value):
 *   --instructions=N        measured window (default 400000)
 *   --warmup=N              functional warmup (default: profile's)
 *   --vsv                   enable VSV (default: baseline)
 *   --down-threshold=N      down-FSM threshold (0 = no down-FSM)
 *   --down-period=N         down-FSM monitoring period
 *   --up-policy=fsm|firstr|lastr
 *   --up-threshold=N --up-period=N
 *   --clock-divider=N       pipeline clock divider at VDDL (default 2)
 *   --timekeeping           enable the Time-Keeping prefetcher
 *   --dcg=on|off            deterministic clock gating
 *   --vddl=V --slew=V_per_ns --ramp-energy-nj=N
 *   --leakage-fraction=F    model a leakier node (default 0)
 *   --ruu=N --lsq=N --issue-width=N --dcache-ports=N
 *   --l2-kb=N --l2-latency=N --mem-latency=N
 *   --jobs=N                worker threads when given several benchmarks
 *   --json=path             write the sweep JSON document (manifest +
 *                           per-run stats)
 *   --seed=S                sweep seed mixed into each profile seed
 *   --stats                 dump the full statistics registry
 *   --csv                   print one machine-readable CSV row per run
 *   --list                  list available benchmarks and exit
 */

#include <iostream>

#include "harness/experiment.hh"

using namespace vsv;

namespace
{

void
printCsv(const SimulationResult &r, bool header)
{
    if (header) {
        std::cout << "benchmark,instructions,ticks,ipc,mr,avgPowerW,"
                     "energyPj,downTransitions,upTransitions,"
                     "lowModeFraction\n";
    }
    std::cout << r.benchmark << ',' << r.instructions << ',' << r.ticks
              << ',' << r.ipc << ',' << r.mr << ',' << r.avgPowerW
              << ',' << r.energyPj << ',' << r.downTransitions << ','
              << r.upTransitions << ',' << r.lowModeFraction << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentArgs args = parseExperimentArgs(argc, argv, 400000, 0);
    Config &config = args.config;

    if (config.getBool("list", false)) {
        for (const auto &name : spec2kBenchmarks())
            std::cout << name << '\n';
        return 0;
    }
    if (args.positional.empty()) {
        std::cerr << "usage: vsvsim <benchmark> [benchmark...] "
                     "[--options]; see --list for benchmarks\n";
        return 1;
    }

    // One job per positional benchmark, all under the same
    // configuration.
    std::vector<SweepJob> jobs;
    for (const std::string &bench : args.positional) {
        SimulationOptions options = makeOptions(
            args, bench, config.getBool("timekeeping", false));
        applyRunSeed(options, args.seed);

        // VSV policy.
        options.vsv.enabled = config.getBool("vsv", false);
        options.vsv.down.threshold = static_cast<std::uint32_t>(
            config.getUInt("down-threshold", 3));
        options.vsv.down.period = static_cast<std::uint32_t>(
            config.getUInt("down-period", 10));
        options.vsv.up.threshold = static_cast<std::uint32_t>(
            config.getUInt("up-threshold", 3));
        options.vsv.up.period = static_cast<std::uint32_t>(
            config.getUInt("up-period", 10));
        options.vsv.clockDivider = static_cast<std::uint32_t>(
            config.getUInt("clock-divider", options.vsv.clockDivider));
        const std::string up_policy =
            config.getString("up-policy", "fsm");
        if (up_policy == "fsm")
            options.vsv.upPolicy = UpPolicy::Fsm;
        else if (up_policy == "firstr")
            options.vsv.upPolicy = UpPolicy::FirstR;
        else if (up_policy == "lastr")
            options.vsv.upPolicy = UpPolicy::LastR;
        else
            fatal("unknown --up-policy: " + up_policy);

        // Circuit constants.
        options.vsv.vddLow =
            config.getDouble("vddl", options.vsv.vddLow);
        options.power.vddLow = options.vsv.vddLow;
        options.vsv.slewVoltsPerTick =
            config.getDouble("slew", options.vsv.slewVoltsPerTick);
        options.power.rampEnergyPj =
            1000.0 *
            config.getDouble("ramp-energy-nj",
                             options.power.rampEnergyPj / 1000.0);
        options.power.gating = config.getString("dcg", "on") != "off"
                                   ? GatingStyle::Dcg
                                   : GatingStyle::Simple;
        options.power.leakageFraction =
            config.getDouble("leakage-fraction", 0.0);

        // Core / memory geometry.
        options.core.ruuSize = static_cast<std::uint32_t>(
            config.getUInt("ruu", options.core.ruuSize));
        options.core.lsqSize = static_cast<std::uint32_t>(
            config.getUInt("lsq", options.core.lsqSize));
        options.core.issueWidth = static_cast<std::uint32_t>(
            config.getUInt("issue-width", options.core.issueWidth));
        options.core.dcachePorts = static_cast<std::uint32_t>(
            config.getUInt("dcache-ports", options.core.dcachePorts));
        options.hierarchy.l2.sizeBytes =
            config.getUInt("l2-kb",
                           options.hierarchy.l2.sizeBytes / 1024) *
            1024;
        options.hierarchy.l2.hitLatency = static_cast<std::uint32_t>(
            config.getUInt("l2-latency",
                           options.hierarchy.l2.hitLatency));
        options.hierarchy.dram.latency = static_cast<std::uint32_t>(
            config.getUInt("mem-latency",
                           options.hierarchy.dram.latency));

        jobs.push_back({bench, options});
    }

    const bool want_stats = config.getBool("stats", false);
    const bool want_csv = config.getBool("csv", false);
    const bool csv_header = config.getBool("csv-header", false);

    const std::vector<SweepOutcome> outcomes =
        runSweep(args, "vsvsim", jobs);
    const std::size_t failures = reportSweepFailures(outcomes);

    bool first = true;
    for (const SweepOutcome &outcome : outcomes) {
        if (!outcome.ok())
            continue;
        const SimulationResult &result = outcome.result;
        if (want_csv) {
            printCsv(result, csv_header && first);
        } else {
            std::cout << result.benchmark << ": " << result.instructions
                      << " insts in " << result.ticks << " ticks\n"
                      << "  IPC " << TextTable::num(result.ipc)
                      << ", MR " << TextTable::num(result.mr, 2)
                      << " misses/kinst\n"
                      << "  avg power "
                      << TextTable::num(result.avgPowerW) << " W ("
                      << TextTable::num(result.energyPj / 1e6, 3)
                      << " uJ total)\n"
                      << "  VSV: " << result.downTransitions
                      << " down / " << result.upTransitions
                      << " up transitions, "
                      << TextTable::num(
                             100.0 * result.lowModeFraction, 1)
                      << "% of wall time in the low-power path\n";
        }
        if (want_stats) {
            std::cout << '\n' << outcome.statsText;
            if (outcomes.size() > 1)
                std::cout << '\n';
        }
        first = false;
    }
    return failures == 0 ? 0 : 1;
}
