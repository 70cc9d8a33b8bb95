#include "campaign.hh"

#include <cstdlib>
#include <memory>

#include "campaign/coordinator.hh"
#include "campaign/worker.hh"
#include "common/logging.hh"

namespace vsv
{
namespace campaign
{

std::vector<SweepOutcome>
runCampaignSweep(const ExperimentArgs &args, const std::string &tool,
                 const std::vector<SweepJob> &jobs,
                 const std::function<void(Coordinator &)> &onCoordinator)
{
    if (!args.campaignRequested())
        return runSweep(args, tool, jobs);

    if (!args.campaignConnect.empty()) {
        // Worker role: same unknown-flag hygiene as runSweep (the
        // worker shares the coordinator's command line, so every
        // coordinator-side flag has already been read), then serve
        // and leave - a worker produces no local output.
        args.config.rejectUnknown(tool);
        std::exit(runWorker(args, tool, jobs));
    }

    // Coordinator role: reuse the whole runSweep pipeline (job
    // preparation, --json export) around an executor that shards the
    // grid across workers. The Coordinator is constructed inside the
    // executor, while this process is still single-threaded - it
    // forks.
    std::shared_ptr<CampaignStats> stats =
        std::make_shared<CampaignStats>();
    std::shared_ptr<store::ResultStoreStats> storeStats =
        std::make_shared<store::ResultStoreStats>();
    const auto execute =
        [&args, &tool, &onCoordinator, stats,
         storeStats](const std::vector<SweepJob> &prepared) {
            Coordinator coordinator(args, tool, prepared);
            if (onCoordinator)
                onCoordinator(coordinator);
            std::vector<SweepOutcome> outcomes = coordinator.execute();
            *stats = coordinator.stats();
            if (coordinator.resultStore())
                *storeStats = coordinator.resultStore()->stats();
            return outcomes;
        };
    const auto amend = [stats, storeStats](SweepManifest &manifest) {
        manifest.threads = 1; // coordinator runs nothing itself
        manifest.campaign = *stats;
        manifest.store = *storeStats;
    };
    return runSweepWith(args, tool, jobs, execute, amend);
}

} // namespace campaign
} // namespace vsv
