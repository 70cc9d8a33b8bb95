#include "lockstep.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"

namespace vsv
{

const char *
lockstepIneligibleReason(const SweepJob &job)
{
    const SimulationOptions &o = job.options;
    if (!o.trace.path.empty())
        return "event-tracing";
    if (job.softTimeoutSeconds > 0.0)
        return "soft-timeout";
    if (o.abortHook)
        return "abort-hook";
    return nullptr;
}

LockstepPlan
planLockstep(const std::vector<SweepJob> &jobs, unsigned maxReplicas,
             LockstepStats &stats)
{
    LockstepPlan plan;
    stats.ineligible.clear();
    stats.batches = 0;
    stats.batchedRuns = 0;
    stats.largestBatch = 0;
    stats.fallbacks = 0;

    // Group eligible jobs by structural fingerprint, preserving
    // first-seen order (cosmetic only: outcomes land in submission
    // slots regardless of execution order).
    std::map<std::string, std::vector<std::size_t>> groups;
    std::vector<std::string> order;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (maxReplicas < 2) {
            plan.serial.push_back(i);
            continue;
        }
        if (const char *reason = lockstepIneligibleReason(jobs[i])) {
            ++stats.ineligible[reason];
            plan.serial.push_back(i);
            continue;
        }
        std::string fp = structuralFingerprint(jobs[i].options);
        std::vector<std::size_t> &group = groups[fp];
        if (group.empty())
            order.push_back(std::move(fp));
        group.push_back(i);
    }

    for (const std::string &fp : order) {
        const std::vector<std::size_t> &group = groups[fp];
        for (std::size_t at = 0; at < group.size(); at += maxReplicas) {
            const std::size_t len =
                std::min<std::size_t>(maxReplicas, group.size() - at);
            if (len < 2) {
                // A group (or trailing chunk) of one gains nothing
                // from the batch machinery; run it serially.
                plan.serial.push_back(group[at]);
                continue;
            }
            LockstepBatch batch;
            batch.members.assign(group.begin() + at,
                                 group.begin() + at + len);
            stats.largestBatch =
                std::max<std::uint64_t>(stats.largestBatch, len);
            stats.batchedRuns += len;
            ++stats.batches;
            plan.batches.push_back(std::move(batch));
        }
    }
    stats.serialRuns = plan.serial.size();
    return plan;
}

std::vector<SweepOutcome>
runLockstepBatch(const std::vector<SweepJob> &jobs,
                 const std::vector<std::size_t> &members)
{
    VSV_ASSERT(members.size() >= 2,
               "a lockstep batch needs a leader and at least one "
               "replica");
    const SweepJob &lead = jobs[members[0]];
    Simulator sim(lead.options);
    for (std::size_t m = 1; m < members.size(); ++m)
        sim.addReplica(jobs[members[m]].options);
    const SimulationResult leadResult = sim.run();

    std::vector<SweepOutcome> outcomes;
    outcomes.reserve(members.size());
    outcomes.push_back(completedOutcome(lead, leadResult, sim.stats()));
    for (std::size_t r = 0; r + 1 < members.size(); ++r) {
        outcomes.push_back(completedOutcome(jobs[members[r + 1]],
                                            sim.replicaResult(r),
                                            sim.replicaStats(r)));
    }
    return outcomes;
}

} // namespace vsv
