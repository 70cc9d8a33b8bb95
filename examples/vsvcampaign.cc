/**
 * @file
 * vsvcampaign: the distributed-sweep driver (CAMPAIGNS.md). Runs the
 * paper's characterization grid - per benchmark: baseline, VSV
 * without FSMs, VSV with the paper's FSMs (the Figure 4 grid) -
 * sharded across campaign workers, and writes the merged --json
 * manifest. The same binary is both sides of the wire: give it
 * --campaign-workers/--campaign-listen to coordinate, or
 * --campaign-connect to serve an existing coordinator.
 *
 * Usage:
 *   # all-local campaign, 4 forked workers:
 *   vsvcampaign --campaign-workers=4 --json=campaign.json
 *
 *   # coordinator awaiting remote workers:
 *   vsvcampaign --campaign-listen=0.0.0.0:7077 --json=campaign.json
 *
 *   # a worker (same flags as the coordinator, plus the address):
 *   vsvcampaign --campaign-connect=host:7077
 *
 * Coordinator and workers must be started with the same grid flags
 * (--benchmarks/--instructions/--warmup/--seed): each side rebuilds
 * the grid from its own command line, and the HELLO handshake rejects
 * any worker whose grid fingerprint differs. Run without campaign
 * flags, this is an ordinary in-process sweep of the same grid.
 *
 * Common options (all --key=value):
 *   --benchmarks=a,b,c      grid benchmarks (default: all of SPEC2K)
 *   --instructions=N --warmup=N --seed=S
 *   --jobs=N                threads per worker process
 *   --retries=N             per-run retry budget (also bounds how
 *                           often a run is re-queued after a worker
 *                           death)
 *   --store-dir=DIR         replay runs the store already holds
 *   --json=path             merged sweep manifest (coordinator)
 *   --campaign-chunk=N --campaign-heartbeat=SECONDS
 */

#include <iostream>

#include "campaign/campaign.hh"
#include "harness/experiment.hh"

using namespace vsv;

int
main(int argc, char **argv)
{
    const ExperimentArgs args = parseExperimentArgs(
        argc, argv, 400000, 300000, spec2kBenchmarks());

    // The Figure 4 characterization grid: three runs per benchmark,
    // all sharing the benchmark's workload seed.
    std::vector<SweepJob> jobs;
    for (const auto &name : args.benchmarks) {
        SimulationOptions base = makeOptions(args, name);
        applyRunSeed(base, args.seed);
        jobs.push_back({name + "/base", base});

        SimulationOptions no_fsm = base;
        no_fsm.vsv = noFsmVsvConfig();
        jobs.push_back({name + "/no-fsm", no_fsm});

        SimulationOptions with_fsm = base;
        with_fsm.vsv = fsmVsvConfig();
        jobs.push_back({name + "/fsm", with_fsm});
    }

    // Worker role exits inside this call; only the coordinator (or a
    // plain in-process run) reaches the summary below.
    const std::vector<SweepOutcome> outcomes =
        campaign::runCampaignSweep(args, "vsvcampaign", jobs);
    const std::size_t failures = reportSweepFailures(outcomes);

    std::size_t completed = 0;
    for (const SweepOutcome &outcome : outcomes)
        completed += outcome.ok();
    std::cout << "campaign complete: " << completed << "/"
              << outcomes.size() << " runs ok";
    if (!args.jsonPath.empty())
        std::cout << ", manifest in " << args.jsonPath;
    std::cout << '\n';
    return failures == 0 ? 0 : 1;
}
