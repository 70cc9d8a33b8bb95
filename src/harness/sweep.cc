#include "sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/minijson.hh"
#include "harness/lockstep.hh"
#include "stats/stats.hh"

#ifndef VSV_GIT_DESCRIBE
#define VSV_GIT_DESCRIBE "unknown"
#endif

namespace vsv
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::optional<SweepOutcome>
tryServeFromStore(store::ResultStore &resultStore, const SweepJob &job)
{
    // Replaying inside lookup() makes an entry that does not decode
    // exactly a quarantined miss, so the re-simulated run replaces it.
    std::optional<SweepOutcome> outcome;
    resultStore.lookup(configFingerprint(job.options),
                       [&](const store::StoreEntry &entry) {
                           outcome = outcomeFromStoreEntry(job.id, entry);
                       });
    return outcome;
}

store::StoreEntry
storeEntryFromOutcome(const SweepOutcome &outcome)
{
    store::StoreEntry entry;
    entry.fingerprint = outcome.fingerprint;
    entry.attempts = outcome.attempts > 0 ? outcome.attempts : 1;
    std::ostringstream result;
    writeSimulationResultJson(result, outcome.result);
    entry.resultJson = result.str();
    entry.statsJson = outcome.statsJson;
    entry.statsText = outcome.statsText;
    return entry;
}

SweepOutcome
outcomeFromStoreEntry(const std::string &id,
                      const store::StoreEntry &entry)
{
    SweepOutcome outcome;
    outcome.id = id;
    outcome.status = SweepStatus::Ok;
    outcome.attempts = entry.attempts;
    outcome.fingerprint = entry.fingerprint;
    // The recorded result re-parses and re-serializes to the bytes
    // that were stored (jsonNumber's %.17g round-trips doubles), so a
    // manifest built from this outcome matches the cold run's bytes.
    outcome.result =
        parseSimulationResultJson(minijson::parse(entry.resultJson));
    // Every stored run completed, so it carries a stats document; an
    // empty one fails to parse like any other broken document.
    outcome.scalars =
        parseScalarsFromStats(minijson::parse(entry.statsJson));
    outcome.statsJson = entry.statsJson;
    outcome.statsText = entry.statsText;
    return outcome;
}

std::string_view
sweepStatusName(SweepStatus status)
{
    switch (status) {
      case SweepStatus::Ok:      return "ok";
      case SweepStatus::Error:   return "error";
      case SweepStatus::Timeout: return "timeout";
    }
    return "unknown";
}

SweepRunner::SweepRunner(unsigned jobs, unsigned retries)
    : threads_(jobs), retries_(retries)
{
    if (threads_ == 0) {
        // Auto-sizing (the --jobs default) clamps to a sane ceiling;
        // an explicit nonzero request is honoured as given.
        const unsigned hw = std::thread::hardware_concurrency();
        threads_ = std::min(hw != 0 ? hw : 1, 64u);
    }
}

SweepOutcome
SweepRunner::runOne(const SweepJob &job, WarmupSnapshotCache *cache)
{
    // With a cache the simulator arrives already warmed (restored or
    // freshly warmed and published); run() skips straight to the
    // measured window either way.
    std::unique_ptr<Simulator> owned =
        cache ? cache->acquire(job.options)
              : std::make_unique<Simulator>(job.options);
    Simulator &sim = *owned;
    SweepOutcome outcome;
    outcome.id = job.id;
    outcome.status = SweepStatus::Ok;
    outcome.attempts = 1;
    outcome.fingerprint = configFingerprint(job.options);
    outcome.result = sim.run();
    outcome.scalars = sim.stats().scalarMap();
    std::ostringstream json;
    sim.stats().dumpJson(json);
    outcome.statsJson = json.str();
    std::ostringstream text;
    sim.stats().dump(text);
    outcome.statsText = text.str();
    return outcome;
}

SweepOutcome
SweepRunner::runOneIsolated(const SweepJob &job,
                            WarmupSnapshotCache *cache)
{
    // Install the soft timeout as a wall-clock deadline in the
    // simulator's abort hook (composed with any caller-supplied hook).
    SweepJob timed = job;
    if (job.softTimeoutSeconds > 0.0) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(job.softTimeoutSeconds));
        auto inner = timed.options.abortHook;
        timed.options.abortHook = [deadline, inner]() {
            return std::chrono::steady_clock::now() >= deadline ||
                   (inner && inner());
        };
    }

    try {
        // fatal() throws (instead of exiting) for the duration of the
        // run, so one bad configuration cannot kill the campaign.
        ScopedThrowingFatal guard;
        return runOne(timed, cache);
    } catch (const SimulationAborted &e) {
        SweepOutcome outcome;
        outcome.id = job.id;
        outcome.fingerprint = configFingerprint(job.options);
        outcome.status = SweepStatus::Timeout;
        outcome.attempts = 1;
        outcome.error = e.what();
        if (job.softTimeoutSeconds > 0.0) {
            outcome.error += " (soft timeout " +
                             std::to_string(job.softTimeoutSeconds) +
                             "s)";
        }
        return outcome;
    } catch (const std::exception &e) {
        SweepOutcome outcome;
        outcome.id = job.id;
        outcome.fingerprint = configFingerprint(job.options);
        outcome.status = SweepStatus::Error;
        outcome.attempts = 1;
        outcome.error = e.what();
        return outcome;
    }
}

SweepOutcome
SweepRunner::runWithRetries(const SweepJob &job) const
{
    SweepOutcome outcome;
    for (unsigned attempt = 1; attempt <= retries_ + 1; ++attempt) {
        outcome = runOneIsolated(job, snapshotCache_);
        outcome.attempts = attempt;
        if (outcome.status == SweepStatus::Ok)
            break;
        if (attempt <= retries_) {
            warn("run " + job.id + " failed (attempt " +
                 std::to_string(attempt) + "/" +
                 std::to_string(retries_ + 1) + "): " + outcome.error +
                 "; retrying");
        }
    }
    return outcome;
}

std::vector<SweepOutcome>
SweepRunner::run(const std::vector<SweepJob> &jobs)
{
    std::vector<SweepOutcome> outcomes(jobs.size());
    lockstepStats_ = LockstepStats{};
    lockstepStats_.enabled = lockstepMax_ >= 2;
    lockstepStats_.maxReplicas = lockstepMax_;
    if (jobs.empty())
        return outcomes;

    // Serve what the result store already has before forming tasks:
    // a hit replays the recorded bytes as a status=ok outcome and the
    // job never reaches the pool, so only fresh runs are inserted.
    std::vector<std::size_t> pending;
    pending.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (resultStore_) {
            if (std::optional<SweepOutcome> hit =
                    tryServeFromStore(*resultStore_, jobs[i])) {
                outcomes[i] = std::move(*hit);
                continue;
            }
        }
        pending.push_back(i);
    }
    if (pending.empty())
        return outcomes;

    // The unit of scheduling is a task: one serial job, or one
    // lockstep batch of structurally identical jobs that share a
    // front-end (lockstep.hh). With lockstep off every job is its own
    // task. Lockstep plans over the pending subset only (store hits
    // must not anchor batches), then maps back to submission indices.
    std::vector<std::vector<std::size_t>> batches;
    std::vector<std::size_t> serial;
    if (lockstepStats_.enabled) {
        std::vector<SweepJob> pendingJobs;
        pendingJobs.reserve(pending.size());
        for (const std::size_t i : pending)
            pendingJobs.push_back(jobs[i]);
        LockstepPlan plan =
            planLockstep(pendingJobs, lockstepMax_, lockstepStats_);
        for (const LockstepBatch &batch : plan.batches) {
            std::vector<std::size_t> &members = batches.emplace_back();
            members.reserve(batch.members.size());
            for (const std::size_t p : batch.members)
                members.push_back(pending[p]);
        }
        for (const std::size_t p : plan.serial)
            serial.push_back(pending[p]);
    } else {
        serial = std::move(pending);
    }
    const std::vector<std::vector<std::size_t>> tasks =
        orderSweepTasks(jobs, batches, std::move(serial));

    // Workers pull the next un-run task; each outcome lands in its
    // submission slot, so the result vector is schedule-independent.
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> fallbacks{0};
    auto worker = [this, &jobs, &tasks, &outcomes, &next, &fallbacks]() {
        const auto finished = [&](std::size_t i) {
            if (resultStore_ && outcomes[i].status == SweepStatus::Ok)
                resultStore_->insert(storeEntryFromOutcome(outcomes[i]));
        };
        for (;;) {
            const std::size_t t =
                next.fetch_add(1, std::memory_order_relaxed);
            if (t >= tasks.size())
                return;
            const std::vector<std::size_t> &members = tasks[t];
            if (members.size() == 1) {
                outcomes[members[0]] = runWithRetries(jobs[members[0]]);
                finished(members[0]);
                continue;
            }
            // A batch failure (including the simulator's lockstep
            // divergence fatal()) is not a campaign failure: every
            // member falls back to the normal isolated serial path,
            // retries and all.
            bool batched = false;
            try {
                ScopedThrowingFatal guard;
                std::vector<SweepOutcome> batch =
                    runLockstepBatch(jobs, members);
                for (std::size_t m = 0; m < members.size(); ++m)
                    outcomes[members[m]] = std::move(batch[m]);
                batched = true;
            } catch (const std::exception &e) {
                warn("lockstep batch led by " + jobs[members[0]].id +
                     " (" + std::to_string(members.size()) +
                     " configs) failed: " + e.what() +
                     "; re-running its members serially");
            }
            if (!batched) {
                fallbacks.fetch_add(1, std::memory_order_relaxed);
                for (const std::size_t i : members)
                    outcomes[i] = runWithRetries(jobs[i]);
            }
            for (const std::size_t i : members)
                finished(i);
        }
    };

    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(threads_, tasks.size()));
    if (workers <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned t = 0; t < workers; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    lockstepStats_.fallbacks =
        fallbacks.load(std::memory_order_relaxed);
    return outcomes;
}

std::vector<std::vector<std::size_t>>
orderSweepTasks(const std::vector<SweepJob> &jobs,
                const std::vector<std::vector<std::size_t>> &batches,
                std::vector<std::size_t> serial)
{
    std::vector<std::vector<std::size_t>> tasks = batches;
    tasks.reserve(batches.size() + serial.size());

    // Split the serial jobs, in submission order, into each warmup
    // fingerprint's first job (its owner) and the rest.
    std::sort(serial.begin(), serial.end());
    std::vector<std::size_t> owners;
    std::vector<std::size_t> rest;
    std::set<std::string> seen;
    for (const std::size_t i : serial) {
        if (seen.insert(warmupFingerprint(jobs[i].options)).second)
            owners.push_back(i);
        else
            rest.push_back(i);
    }
    std::stable_sort(owners.begin(), owners.end(),
                     [&jobs](std::size_t a, std::size_t b) {
                         return jobs[a].options.warmupInstructions >
                                jobs[b].options.warmupInstructions;
                     });
    for (const std::size_t i : owners)
        tasks.push_back({i});
    for (const std::size_t i : rest)
        tasks.push_back({i});
    return tasks;
}

std::uint64_t
mixSeed(std::uint64_t sweepSeed, std::uint64_t profileSeed)
{
    if (sweepSeed == 0)
        return profileSeed;
    return splitmix64(splitmix64(sweepSeed) ^ profileSeed);
}

void
applyRunSeed(SimulationOptions &options, std::uint64_t sweepSeed)
{
    options.profile.seed = mixSeed(sweepSeed, options.profile.seed);
}

namespace
{

/**
 * Every workload-generation knob (the Table 2 calibration targets are
 * reporting-only and deliberately absent). Warmup snapshots key on all
 * of them; configFingerprint and structuralFingerprint add them only
 * for non-stock profiles (appendProfileIdentity).
 */
void
appendProfileKnobs(std::ostream &s, const WorkloadProfile &p)
{
    const char sep = '|';
    s << p.name << sep << p.seed << sep << p.loadFrac << sep
      << p.storeFrac << sep << p.branchFrac << sep << p.fpFrac << sep
      << p.intMulFrac << sep << p.intDivFrac << sep << p.fpMulFrac
      << sep << p.fpDivFrac << sep << p.meanDepDist << sep
      << p.secondSrcProb << sep << p.loadConsumerProb << sep
      << p.coldConsumerProb << sep << p.coldFrac << sep << p.coldBurst
      << sep << p.warmFrac << sep << p.hotFootprint << sep
      << p.warmFootprint << sep << p.coldFootprint << sep
      << static_cast<int>(p.coldPattern) << sep << p.coldStride << sep
      << p.scanStreams << sep << p.scanJitterProb << sep
      << p.chainCount << sep << p.chainMutateProb << sep
      << p.coldRegularFrac << sep << p.regularFootprint << sep
      << p.storeColdScale << sep << p.branchNoise << sep
      << p.codeFootprint << sep << p.callFrac << sep
      << p.swPrefetchCoverage << sep << p.swPrefetchLookahead << sep
      << p.tkWarmupInstructions << sep;
}

/** appendProfileKnobs at full double precision, as a string. */
std::string
profileKnobText(const WorkloadProfile &p)
{
    std::ostringstream s;
    s.precision(17);
    appendProfileKnobs(s, p);
    return s.str();
}

} // namespace

// Append helpers shared by configFingerprint (everything that can
// change results), warmupFingerprint (the subset that can change
// post-warmup state) and structuralFingerprint (the subset that can
// change cycle-level behaviour; lockstep.cc).

namespace fingerprint_detail
{

void
appendProfileIdentity(std::ostream &s, const WorkloadProfile &p)
{
    const char sep = '|';
    s << p.name << sep << p.seed << sep;
    const std::string knobs = profileKnobText(p);
    if (isSpec2kBenchmark(p.name)) {
        WorkloadProfile stock = spec2kProfile(p.name);
        stock.seed = p.seed;
        if (knobs == profileKnobText(stock))
            return;
    }
    s << "profile" << sep << knobs;
}

void
appendPowerKnobs(std::ostream &s, const PowerModelConfig &p)
{
    const char sep = '|';
    s << static_cast<int>(p.gating) << sep << p.vddHigh << sep
      << p.vddLow << sep << p.gatingEfficiency << sep << p.idleFraction
      << sep << p.rampEnergyPj << sep << p.leakageFraction << sep
      << p.converterHighModeFactor << sep;
}

void
appendCacheKnobs(std::ostream &s, const HierarchyConfig &h)
{
    const char sep = '|';
    for (const CacheConfig *c : {&h.l1i, &h.l1d, &h.l2}) {
        s << c->sizeBytes << sep << c->assoc << sep << c->blockBytes
          << sep << c->hitLatency << sep;
    }
}

void
appendBranchKnobs(std::ostream &s, const BranchPredictorConfig &b)
{
    const char sep = '|';
    s << b.bimodalEntries << sep << b.gshareEntries << sep
      << b.chooserEntries << sep << b.historyBits << sep
      << b.btbEntries << sep << b.btbAssoc << sep << b.rasEntries
      << sep;
}

void
appendPrefetcherKnobs(std::ostream &s, const TimekeepingConfig &tk,
                      const StridePrefetcherConfig &stride)
{
    const char sep = '|';
    s << tk.bufferEntries << sep << tk.decayResolution << sep
      << tk.deadMultiplier << sep << tk.predictorEntries << sep
      << stride.streams << sep << stride.degree << sep
      << stride.maxStrideBytes << sep;
}

} // namespace fingerprint_detail

using namespace fingerprint_detail;

std::string
configFingerprint(const SimulationOptions &o)
{
    // Serialize every result-determining knob, then FNV-1a the text.
    // A stock profile is pinned by its name and seed; a modified one
    // adds its knobs (appendProfileIdentity). Tracing and fast-forward
    // are deliberately absent (bit-identical by contract, see
    // DESIGN.md 5d/5e).
    std::ostringstream s;
    const char sep = '|';
    appendProfileIdentity(s, o.profile);
    // The retired trace path (empty) and loop flag; keeps keys stable.
    s << "|1|" << o.warmupInstructions << sep << o.measureInstructions
      << sep << o.timekeeping << sep << o.stridePrefetch << sep;
    s << o.vsv.enabled << sep << o.vsv.down.threshold << sep
      << o.vsv.down.period << sep << static_cast<int>(o.vsv.upPolicy)
      << sep << o.vsv.up.threshold << sep << o.vsv.up.period << sep
      << o.vsv.ctrlDistTicks << sep << o.vsv.clockTreeTicks << sep
      << o.vsv.clockDivider << sep << o.vsv.vddHigh << sep
      << o.vsv.vddLow << sep << o.vsv.slewVoltsPerTick << sep;
    appendPowerKnobs(s, o.power);
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
    // The retired core count and rail policy; keeps store keys stable.
    s << "1|0|";
    return fnv1a64Hex(s.str());
}

std::string
warmupFingerprint(const SimulationOptions &o)
{
    // Only knobs that can influence post-warmup state participate, so
    // every measurement variation of a benchmark (the VSV policy grid,
    // the measure window, core widths, DRAM latency) shares one
    // warmup. MSHR capacities and table geometries are included even
    // though warmup leaves them empty: the snapshot format guards
    // them, and a guard mismatch must mean corruption, never a
    // same-fingerprint restore. Full precision on doubles - a
    // fingerprint collision here silently reuses the wrong state,
    // where configFingerprint's worst case is only a spurious re-run.
    std::ostringstream s;
    s.precision(17);
    const char sep = '|';
    s << "warmup-v2" << sep;
    appendProfileKnobs(s, o.profile);
    // The retired trace path (empty) and loop flag; keeps keys stable.
    s << "|1|" << o.warmupInstructions << sep << o.timekeeping << sep
      << o.stridePrefetch << sep;
    appendPowerKnobs(s, o.power);
    appendCacheKnobs(s, o.hierarchy);
    s << o.hierarchy.l1iMshrs << sep << o.hierarchy.l1dMshrs << sep
      << o.hierarchy.l2Mshrs << sep << o.hierarchy.bus.widthBytes
      << sep << o.hierarchy.bus.occupancy << sep;
    appendBranchKnobs(s, o.branch);
    appendPrefetcherKnobs(s, o.tk, o.stride);
    // The retired core count; keeps snapshot file names stable.
    s << "1|";
    return fnv1a64Hex(s.str());
}

std::string_view
buildGitDescribe()
{
    return VSV_GIT_DESCRIBE;
}

void
writeSimulationResultJson(std::ostream &os, const SimulationResult &r)
{
    os << "{\"benchmark\":\"" << jsonEscape(r.benchmark) << '"'
       << ",\"instructions\":" << r.instructions
       << ",\"ticks\":" << r.ticks
       << ",\"pipelineCycles\":" << r.pipelineCycles
       << ",\"ipc\":" << jsonNumber(r.ipc)
       << ",\"mr\":" << jsonNumber(r.mr)
       << ",\"energyPj\":" << jsonNumber(r.energyPj)
       << ",\"avgPowerW\":" << jsonNumber(r.avgPowerW)
       << ",\"downTransitions\":" << r.downTransitions
       << ",\"upTransitions\":" << r.upTransitions
       << ",\"lowModeFraction\":" << jsonNumber(r.lowModeFraction)
       // Host-dependent observability; excluded from the determinism
       // contract (fastForwardedTicks/ffTickFraction are reproducible
       // for a fixed fastForward setting, wall time never is).
       << ",\"throughput\":{"
       << "\"wallSeconds\":" << jsonNumber(r.wallSeconds)
       << ",\"kinstPerSec\":" << jsonNumber(r.kinstPerSec)
       << ",\"fastForwardedTicks\":" << r.fastForwardedTicks
       << ",\"ffTickFraction\":" << jsonNumber(r.ffTickFraction)
       << "}}";
}

void
writeSweepJson(std::ostream &os, const SweepManifest &manifest,
               const std::vector<SweepOutcome> &outcomes)
{
    os << "{\"manifest\":{"
       << "\"tool\":\"" << jsonEscape(manifest.tool) << '"'
       << ",\"gitDescribe\":\"" << jsonEscape(buildGitDescribe()) << '"'
       << ",\"seed\":" << manifest.seed
       << ",\"threads\":" << manifest.threads
       << ",\"wallSeconds\":" << jsonNumber(manifest.wallSeconds)
       << ",\"snapshotCache\":{"
       << "\"enabled\":"
       << (manifest.snapshotCache.enabled ? "true" : "false")
       << ",\"hits\":" << manifest.snapshotCache.hits
       << ",\"misses\":" << manifest.snapshotCache.misses
       << ",\"diskHits\":" << manifest.snapshotCache.diskHits
       << ",\"failures\":" << manifest.snapshotCache.failures
       << "},\"lockstep\":{"
       << "\"enabled\":"
       << (manifest.lockstep.enabled ? "true" : "false")
       << ",\"maxReplicas\":" << manifest.lockstep.maxReplicas
       << ",\"batches\":" << manifest.lockstep.batches
       << ",\"batchedRuns\":" << manifest.lockstep.batchedRuns
       << ",\"serialRuns\":" << manifest.lockstep.serialRuns
       << ",\"largestBatch\":" << manifest.lockstep.largestBatch
       << ",\"fallbacks\":" << manifest.lockstep.fallbacks
       << ",\"ineligible\":{";
    {
        bool first_reason = true;
        for (const auto &[reason, count] :
             manifest.lockstep.ineligible) {
            os << (first_reason ? "" : ",") << '"' << jsonEscape(reason)
               << "\":" << count;
            first_reason = false;
        }
    }
    os << "}}";
    // Store counters appear only when --store-dir was given, so a
    // store-less manifest stays byte-identical to earlier releases -
    // and a warm re-sweep differs from its cold twin only here and in
    // the host-dependent throughput/wallSeconds fields (STORE.md).
    if (manifest.store.enabled) {
        os << ",\"store\":{"
           << "\"enabled\":true"
           << ",\"hits\":" << manifest.store.hits
           << ",\"misses\":" << manifest.store.misses
           << ",\"inserts\":" << manifest.store.inserts
           << ",\"corrupt\":" << manifest.store.corrupt
           << ",\"writeFailures\":" << manifest.store.writeFailures
           << '}';
    }
    os << ",\"config\":{";
    bool first = true;
    for (const auto &[key, value] : manifest.config) {
        os << (first ? "" : ",") << '"' << jsonEscape(key) << "\":\""
           << jsonEscape(value) << '"';
        first = false;
    }
    os << "}},\"runs\":[";
    first = true;
    for (const auto &outcome : outcomes) {
        os << (first ? "" : ",") << "{\"id\":\"" << jsonEscape(outcome.id)
           << "\",\"fingerprint\":\"" << jsonEscape(outcome.fingerprint)
           << "\",\"status\":\"" << sweepStatusName(outcome.status)
           << "\",\"attempts\":" << outcome.attempts << ",\"error\":";
        if (outcome.error.empty())
            os << "null";
        else
            os << '"' << jsonEscape(outcome.error) << '"';
        os << ",\"result\":";
        if (outcome.ok())
            writeSimulationResultJson(os, outcome.result);
        else
            os << "null";
        // statsJson is already a complete JSON object.
        os << ",\"stats\":";
        if (outcome.ok() && !outcome.statsJson.empty())
            os << outcome.statsJson;
        else
            os << "null";
        os << '}';
        first = false;
    }
    os << "]}\n";
}

namespace
{

/** Member `key` of `obj`: present, numeric, integral, in [0, 2^64). */
std::uint64_t
integerField(const minijson::Value &obj, const std::string &key)
{
    const minijson::Value &v = obj.at(key);
    // 2^64 is exact as a double, so the bound admits every value that
    // converts to uint64_t without undefined behaviour.
    constexpr double limit = 18446744073709551616.0;
    if (!v.isNumber() || !(v.num() >= 0.0) || v.num() >= limit ||
        std::trunc(v.num()) != v.num()) {
        throw std::runtime_error("result field '" + key +
                                 "' is not an unsigned 64-bit integer");
    }
    return static_cast<std::uint64_t>(v.num());
}

/** Member `key` of `obj`: a finite number, or null (jsonNumber's
 *  encoding of a non-finite value), which reads as 0.0. */
double
doubleField(const minijson::Value &obj, const std::string &key)
{
    const minijson::Value &v = obj.at(key);
    if (std::holds_alternative<std::nullptr_t>(v.v))
        return 0.0;
    if (!v.isNumber() || !std::isfinite(v.num())) {
        throw std::runtime_error("result field '" + key +
                                 "' is not a finite number or null");
    }
    return v.num();
}

} // namespace

SimulationResult
parseSimulationResultJson(const minijson::Value &r)
{
    SimulationResult out;
    out.benchmark = r.at("benchmark").str();
    out.instructions = integerField(r, "instructions");
    out.ticks = integerField(r, "ticks");
    out.pipelineCycles = integerField(r, "pipelineCycles");
    out.ipc = doubleField(r, "ipc");
    out.mr = doubleField(r, "mr");
    out.energyPj = doubleField(r, "energyPj");
    out.avgPowerW = doubleField(r, "avgPowerW");
    out.downTransitions = integerField(r, "downTransitions");
    out.upTransitions = integerField(r, "upTransitions");
    out.lowModeFraction = doubleField(r, "lowModeFraction");
    const minijson::Value &t = r.at("throughput");
    out.wallSeconds = doubleField(t, "wallSeconds");
    out.kinstPerSec = doubleField(t, "kinstPerSec");
    out.fastForwardedTicks = integerField(t, "fastForwardedTicks");
    out.ffTickFraction = doubleField(t, "ffTickFraction");
    return out;
}

std::map<std::string, double>
parseScalarsFromStats(const minijson::Value &stats)
{
    if (!stats.has("scalars") || !stats.at("scalars").isObject()) {
        throw std::runtime_error("stats document has no scalars object");
    }
    std::map<std::string, double> scalars;
    for (const auto &[name, value] : stats.at("scalars").object()) {
        // null is jsonNumber's encoding of a non-finite value.
        if (std::holds_alternative<std::nullptr_t>(value.v)) {
            scalars.emplace(name, 0.0);
            continue;
        }
        if (!value.isNumber()) {
            throw std::runtime_error("stats scalar '" + name +
                                     "' is not a number or null");
        }
        scalars.emplace(name, value.num());
    }
    return scalars;
}

} // namespace vsv
