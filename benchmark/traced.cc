#include "traced.hh"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "harness/lockstep.hh"
#include "measure.hh"
#include "stats/stats.hh"

namespace vsvbench
{

using namespace vsv;

double
Tracer::seconds(const std::string &name) const
{
    double total = 0.0;
    for (const Span &span : spans_) {
        if (span.name == name)
            total += span.end - span.start;
    }
    return total;
}

double
Tracer::secondsAtDepth(int depth) const
{
    double total = 0.0;
    for (const Span &span : spans_) {
        if (span.depth == depth)
            total += span.end - span.start;
    }
    return total;
}

void
Tracer::writeChrome(const std::string &path) const
{
    static const char *const kinds[] = {"artifact", "run", "call"};
    double origin = spans_.empty() ? 0.0 : spans_.front().start;
    for (const Span &span : spans_)
        origin = std::min(origin, span.start);

    std::ofstream os(path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Span &span : spans_) {
        os << (first ? "" : ",\n") << "{\"name\":\""
           << jsonEscape(span.name) << "\",\"cat\":\""
           << kinds[span.depth] << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
           << ",\"ts\":" << jsonNumber((span.start - origin) * 1e6)
           << ",\"dur\":" << jsonNumber((span.end - span.start) * 1e6)
           << ",\"args\":{\"run\":\"" << jsonEscape(span.run) << "\"}}";
        first = false;
    }
    os << "]}\n";
    if (!os)
        throw std::runtime_error("cannot write trace " + path);
}

namespace
{

std::uint64_t
scalar(const SweepOutcome &outcome, const char *name)
{
    const auto it = outcome.scalars.find(name);
    return it == outcome.scalars.end()
               ? 0
               : static_cast<std::uint64_t>(it->second);
}

void
countComponents(const SweepOutcome &outcome, ReplayCounts &counts)
{
    counts.simInstructions += outcome.result.instructions;
    counts.simTicks += outcome.result.ticks;
    counts.fastForwardedTicks += outcome.result.fastForwardedTicks;
    for (const char *level : {"mem.l1d", "mem.l1i", "mem.l2"}) {
        counts.cacheAccesses +=
            scalar(outcome, (std::string(level) + ".hits").c_str()) +
            scalar(outcome, (std::string(level) + ".misses").c_str());
    }
    counts.bpredLookups += scalar(outcome, "bpred.lookups");
    counts.committed += scalar(outcome, "cpu.committed");
}

} // namespace

ArtifactReplay
replayArtifact(const std::string &tool, const ExperimentArgs &args,
               const std::vector<SweepJob> &jobs,
               const std::string &manifestPath, Tracer &tracer,
               ReplayCounts &counts)
{
    // As in runSweep, the cache and the store exist before the sweep
    // clock starts.
    WarmupSnapshotCache cache(args.snapshotDir);
    std::unique_ptr<store::ResultStore> resultStore;
    if (args.storeEnabled())
        resultStore = std::make_unique<store::ResultStore>(args.storeDir);

    ArtifactReplay out;
    out.outcomes.resize(jobs.size());
    const double artifactStart = now();
    const auto call = [&tracer](const char *name, const std::string &run,
                                const auto &fn) {
        const double start = now();
        fn();
        tracer.record(name, run, start, now(), 2);
    };
    const auto insert = [&](const SweepOutcome &outcome) {
        if (resultStore && outcome.status == SweepStatus::Ok) {
            call("store.insert", outcome.id, [&] {
                resultStore->insert(storeEntryFromOutcome(outcome));
            });
        }
    };

    // Probe the store for every run before any simulation.
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ++counts.runs;
        if (!resultStore) {
            pending.push_back(i);
            continue;
        }
        const SweepJob &job = jobs[i];
        const double runStart = now();
        std::optional<store::StoreEntry> entry;
        call("store.lookup", job.id, [&] {
            entry = resultStore->lookup(configFingerprint(job.options));
        });
        ++counts.lookups;
        bool served = false;
        if (entry) {
            call("store.replay", job.id, [&] {
                try {
                    out.outcomes[i] = outcomeFromStoreEntry(job.id, *entry);
                    served = true;
                } catch (const std::exception &e) {
                    warn("stored " + job.id + " did not replay: " +
                         e.what());
                }
            });
        }
        tracer.record("run", job.id, runStart, now(), 1);
        if (served)
            ++counts.storeHits;
        else
            pending.push_back(i);
    }

    const auto runSerial = [&](std::size_t i) {
        const SweepJob &job = jobs[i];
        const double runStart = now();
        SweepOutcome &outcome = out.outcomes[i];
        outcome.id = job.id;
        outcome.fingerprint = configFingerprint(job.options);
        outcome.attempts = 1;
        try {
            ScopedThrowingFatal guard;
            const SnapshotCacheStats before = cache.stats();
            const double acquireStart = now();
            std::unique_ptr<Simulator> sim = cache.acquire(job.options);
            const double acquireEnd = now();
            const SnapshotCacheStats after = cache.stats();
            ++counts.acquires;
            const char *kind = "snapshot.warmup";
            if (after.diskHits > before.diskHits) {
                kind = "snapshot.disk_restore";
                ++counts.diskRestores;
            } else if (after.hits > before.hits) {
                kind = "snapshot.restore";
                ++counts.restores;
            } else {
                ++counts.warmups;
                counts.warmupInstructions += job.options.warmupInstructions;
            }
            tracer.record(kind, job.id, acquireStart, acquireEnd, 2);

            call("harness.measure", job.id,
                 [&] { outcome.result = sim->run(); });
            call("stats.dump", job.id, [&] {
                outcome.scalars = sim->stats().scalarMap();
                std::ostringstream json;
                sim->stats().dumpJson(json);
                outcome.statsJson = json.str();
                std::ostringstream text;
                sim->stats().dump(text);
                outcome.statsText = text.str();
            });
            outcome.status = SweepStatus::Ok;
            countComponents(outcome, counts);
        } catch (const std::exception &e) {
            outcome.status = SweepStatus::Error;
            outcome.error = e.what();
        }
        insert(outcome);
        tracer.record("run", job.id, runStart, now(), 1);
    };

    LockstepStats lockstep;
    lockstep.enabled = args.lockstep >= 2;
    lockstep.maxReplicas = args.lockstep;
    if (!pending.empty()) {
        std::vector<SweepJob> pendingJobs;
        for (const std::size_t i : pending)
            pendingJobs.push_back(jobs[i]);
        LockstepPlan plan;
        if (lockstep.enabled) {
            call("lockstep.plan", "", [&] {
                plan = planLockstep(pendingJobs, args.lockstep, lockstep);
            });
        } else {
            for (std::size_t p = 0; p < pending.size(); ++p)
                plan.serial.push_back(p);
        }

        for (const LockstepBatch &batch : plan.batches) {
            const std::string &leader = pendingJobs[batch.members[0]].id;
            const double runStart = now();
            std::vector<SweepOutcome> batched;
            call("lockstep.batch", leader, [&] {
                try {
                    ScopedThrowingFatal guard;
                    batched = runLockstepBatch(pendingJobs, batch.members);
                } catch (const std::exception &e) {
                    warn("lockstep batch led by " + leader +
                         " failed: " + e.what());
                    batched.clear();
                }
            });
            if (batched.empty()) {
                // As SweepRunner: a failed batch re-runs each member
                // serially, each under its own run span.
                tracer.record("run", leader, runStart, now(), 1);
                ++lockstep.fallbacks;
                for (const std::size_t m : batch.members)
                    runSerial(pending[m]);
                continue;
            }
            ++counts.batches;
            counts.batchedRuns += batch.members.size();
            for (std::size_t m = 0; m < batch.members.size(); ++m) {
                SweepOutcome &slot = out.outcomes[pending[batch.members[m]]];
                slot = std::move(batched[m]);
                insert(slot);
            }
            tracer.record("run", leader, runStart, now(), 1);
        }
        for (const std::size_t p : plan.serial)
            runSerial(pending[p]);
    }

    if (resultStore) {
        call("store.flush", "", [&] { resultStore->flush(); });
        out.store = resultStore->stats();
    }
    out.snapshotCache = cache.stats();
    out.lockstep = lockstep;
    call("sweep.export", "", [&] {
        SweepManifest manifest;
        manifest.tool = tool;
        manifest.seed = args.seed;
        manifest.threads = 1;
        manifest.wallSeconds = now() - artifactStart;
        manifest.snapshotCache = out.snapshotCache;
        manifest.lockstep = out.lockstep;
        manifest.store = out.store;
        manifest.config = args.config.items();
        std::ofstream os(manifestPath);
        writeSweepJson(os, manifest, out.outcomes);
        if (!os)
            throw std::runtime_error("cannot write " + manifestPath);
    });
    tracer.record(tool, "", artifactStart, now(), 0);
    return out;
}

ComponentCosts
measureComponents(const std::string &exe, const std::string &workDir)
{
    const std::string generation =
        "BM_WorkloadGeneration/" +
        std::to_string(WorkloadGenerator::defaultBatchOps);
    const std::string outPath = workDir + "/micro_components.json";
    const ChildResult child = runChild(
        exe,
        {"--benchmark_filter=^(BM_CacheAccessHit|"
         "BM_BranchPredictorRoundTrip|" + generation + ")$",
         "--benchmark_min_time=0.1", "--benchmark_out_format=json",
         "--benchmark_out=" + outPath},
        workDir + "/micro_components.log");
    if (!child.exitedOk)
        throw std::runtime_error("micro_components failed; see " + workDir +
                                 "/micro_components.log");

    std::map<std::string, double> ns;
    const minijson::Value doc = minijson::parse(readFile(outPath));
    for (const minijson::Value &b : doc.at("benchmarks").array()) {
        const std::string &unit = b.at("time_unit").str();
        const double scale = unit == "ns"   ? 1.0
                             : unit == "us" ? 1e3
                             : unit == "ms" ? 1e6
                                            : 1e9;
        ns[b.at("name").str()] = b.at("cpu_time").num() * scale;
    }
    const auto cost = [&](const std::string &name) {
        const auto it = ns.find(name);
        if (it == ns.end())
            throw std::runtime_error("micro_components did not report " +
                                     name);
        return it->second;
    };
    return {cost("BM_CacheAccessHit"), cost("BM_BranchPredictorRoundTrip"),
            cost(generation)};
}

std::vector<Metric>
layerMetrics(const Tracer &t, const ReplayCounts &c,
             const ComponentCosts &costs, double e2eSweepSeconds,
             unsigned childJobs, const std::string &storeDir,
             const std::string &snapshotDir)
{
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const double traced = t.secondsAtDepth(0);
    const double attributed = t.secondsAtDepth(2);
    const auto share = [&](const char *span) {
        return ratio(t.seconds(span), traced);
    };
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    const double warmupS = t.seconds("snapshot.warmup");
    const double measureS = t.seconds("harness.measure");
    const double predictedNs =
        costs.cacheAccessNs * n(c.cacheAccesses) +
        costs.bpredRoundTripNs * n(c.bpredLookups) +
        costs.workloadOpNs * n(c.committed);
    const auto disk = [](const std::string &dir) {
        return dir.empty() ? 0.0 : dirMegabytes(dir);
    };

    return {
        {"harness.warmup_share", share("snapshot.warmup"), "ratio"},
        {"harness.warmup_count", n(c.warmups), "count"},
        {"harness.warmup_minst_per_s",
         ratio(n(c.warmupInstructions) / 1e6, warmupS), "Minst/s"},
        {"harness.measure_share", share("harness.measure"), "ratio"},
        {"harness.sim_minst", n(c.simInstructions) / 1e6, "Minst"},
        {"harness.sim_ticks", n(c.simTicks), "count"},
        {"harness.measure_kips", ratio(n(c.simInstructions) / 1e3, measureS),
         "kinst/s"},
        {"harness.ns_per_tick", ratio(measureS * 1e9, n(c.simTicks)), "ns"},
        {"harness.ff_tick_frac", ratio(n(c.fastForwardedTicks), n(c.simTicks)),
         "ratio"},
        {"harness.component_budget_frac", ratio(predictedNs, measureS * 1e9),
         "ratio"},
        {"snapshot.restore_share", share("snapshot.restore"), "ratio"},
        {"snapshot.restore_count", n(c.restores), "count"},
        {"snapshot.disk_restore_share", share("snapshot.disk_restore"),
         "ratio"},
        {"snapshot.disk_restore_count", n(c.diskRestores), "count"},
        {"snapshot.reuse_frac", ratio(n(c.restores + c.diskRestores),
                                      n(c.acquires)),
         "ratio"},
        {"snapshot.disk_mb", disk(snapshotDir), "MB"},
        {"stats.dump_share", share("stats.dump"), "ratio"},
        {"store.lookup_share", share("store.lookup"), "ratio"},
        {"store.lookup_count", n(c.lookups), "count"},
        {"store.hit_frac", ratio(n(c.storeHits), n(c.lookups)), "ratio"},
        {"store.replay_share", share("store.replay"), "ratio"},
        {"store.insert_share", share("store.insert"), "ratio"},
        {"store.flush_share", share("store.flush"), "ratio"},
        {"store.disk_mb", disk(storeDir), "MB"},
        {"lockstep.plan_share", share("lockstep.plan"), "ratio"},
        {"lockstep.batch_share", share("lockstep.batch"), "ratio"},
        {"lockstep.batch_count", n(c.batches), "count"},
        {"lockstep.batched_frac", ratio(n(c.batchedRuns), n(c.runs)),
         "ratio"},
        {"lockstep.replicas_mean",
         ratio(n(c.batchedRuns - c.batches), n(c.batches)), "count"},
        {"sweep.export_share", share("sweep.export"), "ratio"},
        {"sweep.parallel_eff",
         ratio(attributed, childJobs * e2eSweepSeconds), "ratio"},
        {"sweep.attributed_frac", ratio(attributed, traced), "ratio"},
        {"sweep.traced_s", traced, "s"},
    };
}

} // namespace vsvbench
