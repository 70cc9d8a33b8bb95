/**
 * @file
 * Front door for distributed sweep campaigns (CAMPAIGNS.md): a
 * drop-in replacement for runSweep that interprets the --campaign-*
 * flags. Sweep binaries that link vsv_campaign call runCampaignSweep
 * where they previously called runSweep; with no campaign flags the
 * behaviour (and the --json manifest, byte for byte) is unchanged.
 */

#ifndef VSV_CAMPAIGN_CAMPAIGN_HH
#define VSV_CAMPAIGN_CAMPAIGN_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"

namespace vsv
{
namespace campaign
{

class Coordinator;

/**
 * Run a sweep grid under whatever campaign role the command line
 * asked for:
 *
 *  - no --campaign-* flags: plain in-process runSweep;
 *  - --campaign-connect=HOST:PORT: worker role - serve the
 *    coordinator at that address, then std::exit (a worker prints no
 *    tables and writes no --json);
 *  - --campaign-workers=N and/or --campaign-listen=[HOST:]PORT:
 *    coordinator role - shard the grid across the workers and return
 *    merged outcomes in submission order, exactly as runSweep would
 *    have (--store-dir/--json/--retries all apply on this side).
 *
 * `onCoordinator` (may be null) is a test seam invoked with the
 * coordinator after construction, before any run is dispatched -
 * integration tests use it to read listenPort()/localWorkerPids()
 * and to install an outcome hook.
 */
std::vector<SweepOutcome> runCampaignSweep(
    const ExperimentArgs &args, const std::string &tool,
    const std::vector<SweepJob> &jobs,
    const std::function<void(Coordinator &)> &onCoordinator = {});

} // namespace campaign
} // namespace vsv

#endif // VSV_CAMPAIGN_CAMPAIGN_HH
