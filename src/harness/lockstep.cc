#include "lockstep.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/hash.hh"
#include "common/logging.hh"

namespace vsv
{

using namespace fingerprint_detail;

namespace
{

/** The ramp duration VsvController derives from the rail voltages
 *  (VoltageRail::swingTicks): the one timing-relevant consequence of
 *  the otherwise accounting-only voltage knobs. */
std::uint32_t
derivedRampTicks(const VsvConfig &vsv)
{
    return static_cast<std::uint32_t>(
        (vsv.vddHigh - vsv.vddLow) / vsv.slewVoltsPerTick + 0.5);
}

} // namespace

std::string
structuralFingerprint(const SimulationOptions &o)
{
    // configFingerprint's serialization minus the pure
    // energy-accounting knobs: the whole PowerModelConfig, and the
    // VSV rail voltage levels/slew - replaced by the ramp duration
    // they derive, which *is* timing (it paces RampDown/RampUp and
    // therefore the pipeline-edge schedule). Everything else changes
    // cycle-level behaviour and must match for two configs to share a
    // front-end.
    std::ostringstream s;
    const char sep = '|';
    s << "structural-v1" << sep;
    appendProfileIdentity(s, o.profile);
    s << o.tracePath << sep << o.traceLoop << sep
      << o.warmupInstructions << sep << o.measureInstructions << sep
      << o.timekeeping << sep << o.stridePrefetch << sep;
    s << o.vsv.enabled << sep << o.vsv.down.threshold << sep
      << o.vsv.down.period << sep << static_cast<int>(o.vsv.upPolicy)
      << sep << o.vsv.up.threshold << sep << o.vsv.up.period << sep
      << o.vsv.ctrlDistTicks << sep << o.vsv.clockTreeTicks << sep
      << o.vsv.clockDivider << sep << derivedRampTicks(o.vsv) << sep;
    appendCacheKnobs(s, o.hierarchy);
    s << o.hierarchy.l1iMshrs << sep << o.hierarchy.l1dMshrs << sep
      << o.hierarchy.l2Mshrs << sep << o.hierarchy.prefetchBufferLatency
      << sep << o.hierarchy.l2MissDetectTicks << sep
      << o.hierarchy.bus.widthBytes << sep << o.hierarchy.bus.occupancy
      << sep << o.hierarchy.dram.latency << sep;
    s << o.core.fetchWidth << sep << o.core.dispatchWidth << sep
      << o.core.issueWidth << sep << o.core.commitWidth << sep
      << o.core.ruuSize << sep << o.core.lsqSize << sep
      << o.core.fetchQueueSize << sep << o.core.mispredictPenalty << sep
      << o.core.dcachePorts << sep;
    appendBranchKnobs(s, o.branch);
    appendPrefetcherKnobs(s, o.tk, o.stride);
    // The retired core count and rail policy; keeps keys stable.
    s << "1|0|";
    return fnv1a64Hex(s.str());
}

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
        std::vector<std::size_t> &group =
            groups[structuralFingerprint(jobs[i].options)];
        if (group.empty())
            order.push_back(structuralFingerprint(jobs[i].options));
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
    for (std::size_t m = 1; m < members.size(); ++m) {
        const SimulationOptions &o = jobs[members[m]].options;
        sim.addReplica(o.power, o.vsv);
    }
    const SimulationResult leadResult = sim.run();

    std::vector<SweepOutcome> outcomes;
    outcomes.reserve(members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
        const SweepJob &job = jobs[members[m]];
        const StatRegistry &stats =
            m == 0 ? sim.stats() : sim.replicaStats(m - 1);
        SweepOutcome outcome;
        outcome.id = job.id;
        outcome.status = SweepStatus::Ok;
        outcome.attempts = 1;
        outcome.fingerprint = configFingerprint(job.options);
        outcome.result = m == 0 ? leadResult : sim.replicaResult(m - 1);
        outcome.scalars = stats.scalarMap();
        std::ostringstream json;
        stats.dumpJson(json);
        outcome.statsJson = json.str();
        std::ostringstream text;
        stats.dump(text);
        outcome.statsText = text.str();
        outcomes.push_back(std::move(outcome));
    }
    return outcomes;
}

} // namespace vsv
