/**
 * @file
 * Campaign worker loop: serves one coordinator connection, executing
 * leased runs with the same SweepRunner machinery (lockstep batching,
 * warmup snapshot cache, --retries) a single-process sweep uses and
 * streaming each SweepOutcome back the moment it is final. The wire
 * protocol is specified in CAMPAIGNS.md and implemented in
 * protocol.hh.
 */

#ifndef VSV_CAMPAIGN_WORKER_HH
#define VSV_CAMPAIGN_WORKER_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"

namespace vsv
{
namespace campaign
{

/**
 * Serve the coordinator on an already-connected socket/socketpair fd:
 * HELLO handshake, then ASSIGN -> run -> stream OUTCOMEs until the
 * coordinator says BYE. `prepared` must be the prepareSweepJobs()
 * product of the same command line the coordinator parsed - the HELLO
 * exchange cross-checks sweepGridFingerprint and the worker is
 * refused on any drift. Uses args for --jobs/--retries/--lockstep/
 * --no-snapshot-cache/--snapshot-dir/--campaign-heartbeat; the
 * coordinator-side flags (--json/--campaign-listen/...) are
 * ignored here. Closes `fd` before returning.
 *
 * @return process exit code (0 = clean BYE from the coordinator)
 */
int serveCoordinator(int fd, const ExperimentArgs &args,
                     const std::string &tool,
                     const std::vector<SweepJob> &prepared);

/**
 * --campaign-connect entry point: resolve HOST:PORT, connect, and
 * serveCoordinator(). fatal() when the address is unparseable or the
 * connection is refused.
 */
int runWorker(const ExperimentArgs &args, const std::string &tool,
              const std::vector<SweepJob> &jobs);

} // namespace campaign
} // namespace vsv

#endif // VSV_CAMPAIGN_WORKER_HH
