#include "sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

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
completedOutcome(const SweepJob &job, const SimulationResult &result,
                 const StatRegistry &stats)
{
    SweepOutcome outcome;
    outcome.id = job.id;
    outcome.attempts = 1;
    outcome.fingerprint = configFingerprint(job.options);
    outcome.result = result;
    outcome.scalars = stats.scalarMap();
    std::ostringstream json, text;
    stats.dumpJson(json);
    stats.dump(text);
    outcome.statsJson = json.str();
    outcome.statsText = text.str();
    return outcome;
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

SweepRunner::SweepRunner(unsigned jobs)
    : threads_(jobs)
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
    std::unique_ptr<Simulator> sim =
        cache ? cache->acquire(job.options)
              : std::make_unique<Simulator>(job.options);
    const SimulationResult result = sim->run();
    return completedOutcome(job, result, sim->stats());
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

    SweepOutcome failed;
    try {
        // fatal() throws (instead of exiting) for the duration of the
        // run, so one bad configuration cannot kill the campaign.
        ScopedThrowingFatal guard;
        return runOne(timed, cache);
    } catch (const SimulationAborted &e) {
        failed.status = SweepStatus::Timeout;
        failed.error = e.what();
        if (job.softTimeoutSeconds > 0.0) {
            failed.error += " (soft timeout " +
                            std::to_string(job.softTimeoutSeconds) + "s)";
        }
    } catch (const std::exception &e) {
        failed.status = SweepStatus::Error;
        failed.error = e.what();
    }
    failed.id = job.id;
    failed.fingerprint = configFingerprint(job.options);
    failed.attempts = 1;
    return failed;
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
    const std::size_t units = batches.size() + serial.size();
    const std::vector<SweepTask> tasks =
        orderSweepTasks(jobs, batches, std::move(serial));

    // The schedule: the static tasks in order, plus a ready queue of
    // consumers whose owner's warmup has settled. Workers drain the
    // queue before they start the next task, so a snapshot is
    // restored soon after it is published and dropped after its last
    // restore; a worker that finds neither waits for an owner in
    // flight, never on a snapshot future. Each outcome lands in its
    // submission slot, so the result vector is schedule-independent.
    std::mutex scheduleMutex;
    std::condition_variable scheduleCv;
    std::size_t nextTask = 0;
    std::deque<std::size_t> ready;
    std::size_t held = 0;  // consumers not yet queued
    std::vector<bool> queued(tasks.size(), false);
    std::vector<const std::string *> warmupOf(jobs.size(), nullptr);
    for (const SweepTask &task : tasks) {
        held += task.consumers.size();
        if (task.warmupFingerprint.empty())
            continue;
        warmupOf[task.members[0]] = &task.warmupFingerprint;
        for (const std::size_t i : task.consumers)
            warmupOf[i] = &task.warmupFingerprint;
    }
    // Idempotent: the cache calls it when the warmup settles, and the
    // owner's worker again when the owner ends, however it ended.
    const auto queueConsumers = [&](std::size_t t) {
        std::lock_guard<std::mutex> lock(scheduleMutex);
        if (queued[t])
            return;
        queued[t] = true;
        ready.insert(ready.end(), tasks[t].consumers.begin(),
                     tasks[t].consumers.end());
        held -= tasks[t].consumers.size();
        scheduleCv.notify_all();
    };
    if (snapshotCache_) {
        for (std::size_t t = 0; t < tasks.size(); ++t) {
            if (tasks[t].warmupFingerprint.empty())
                continue;
            snapshotCache_->declareUses(
                tasks[t].warmupFingerprint, 1 + tasks[t].consumers.size(),
                [&queueConsumers, t] { queueConsumers(t); });
        }
    }

    std::atomic<std::uint64_t> fallbacks{0};
    const auto finished = [&](std::size_t i) {
        if (resultStore_ && outcomes[i].status == SweepStatus::Ok)
            resultStore_->insert(storeEntryFromOutcome(outcomes[i]));
    };
    const auto runSerial = [&](std::size_t i) {
        outcomes[i] = runOneIsolated(jobs[i], snapshotCache_);
        if (snapshotCache_ && warmupOf[i])
            snapshotCache_->releaseUse(*warmupOf[i]);
        finished(i);
    };
    const auto runBatch = [&](const std::vector<std::size_t> &members) {
        // A batch failure (including the simulator's lockstep
        // divergence fatal()) is not a campaign failure: every member
        // falls back to the normal isolated serial path.
        bool batched = false;
        try {
            ScopedThrowingFatal guard;
            std::vector<SweepOutcome> batch =
                runLockstepBatch(jobs, members);
            for (std::size_t m = 0; m < members.size(); ++m)
                outcomes[members[m]] = std::move(batch[m]);
            batched = true;
        } catch (const std::exception &e) {
            warn("lockstep batch led by " + jobs[members[0]].id + " (" +
                 std::to_string(members.size()) +
                 " configs) failed: " + e.what() +
                 "; re-running its members serially");
        }
        if (!batched) {
            fallbacks.fetch_add(1, std::memory_order_relaxed);
            for (const std::size_t i : members)
                outcomes[i] = runOneIsolated(jobs[i], snapshotCache_);
        }
        for (const std::size_t i : members)
            finished(i);
    };
    const auto worker = [&]() {
        for (;;) {
            std::optional<std::size_t> consumer;
            std::size_t t = 0;
            {
                std::unique_lock<std::mutex> lock(scheduleMutex);
                scheduleCv.wait(lock, [&] {
                    return !ready.empty() || nextTask < tasks.size() ||
                           held == 0;
                });
                if (!ready.empty()) {
                    consumer = ready.front();
                    ready.pop_front();
                } else if (nextTask < tasks.size()) {
                    t = nextTask++;
                } else {
                    return;
                }
            }
            if (consumer) {
                runSerial(*consumer);
                continue;
            }
            if (tasks[t].warmupFingerprint.empty()) {
                runBatch(tasks[t].members);
                continue;
            }
            // Without a cache the consumers have nothing to wait for.
            if (!snapshotCache_)
                queueConsumers(t);
            runSerial(tasks[t].members[0]);
            queueConsumers(t);
        }
    };

    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(threads_, units));
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

std::vector<SweepTask>
orderSweepTasks(const std::vector<SweepJob> &jobs,
                const std::vector<std::vector<std::size_t>> &batches,
                std::vector<std::size_t> serial)
{
    std::vector<SweepTask> tasks;
    tasks.reserve(batches.size() + serial.size());
    for (const std::vector<std::size_t> &members : batches)
        tasks.push_back({members, {}, {}});

    // Group the serial jobs, in submission order, under each warmup
    // fingerprint's first job (its owner).
    std::sort(serial.begin(), serial.end());
    std::vector<SweepTask> owners;
    std::map<std::string, std::size_t> ownerOf;
    for (const std::size_t i : serial) {
        std::string fingerprint = warmupFingerprint(jobs[i].options);
        const auto [it, first] =
            ownerOf.emplace(fingerprint, owners.size());
        if (first)
            owners.push_back({{i}, {}, std::move(fingerprint)});
        else
            owners[it->second].consumers.push_back(i);
    }
    std::stable_sort(owners.begin(), owners.end(),
                     [&jobs](const SweepTask &a, const SweepTask &b) {
                         return jobs[a.members[0]]
                                    .options.warmupInstructions >
                                jobs[b.members[0]]
                                    .options.warmupInstructions;
                     });
    for (SweepTask &owner : owners)
        tasks.push_back(std::move(owner));
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
