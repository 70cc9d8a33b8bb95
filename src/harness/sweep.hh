/**
 * @file
 * Parallel sweep runner: executes a grid of (benchmark x VSV config)
 * simulations across a fixed-size thread pool and collects per-run
 * results plus full statistics snapshots, in submission order.
 *
 * Determinism contract: every run is a pure function of its
 * SimulationOptions - all randomness comes from the workload
 * profile's seed (optionally perturbed by mixSeed, which depends only
 * on the sweep seed and the profile seed, never on thread schedule) -
 * and outcomes are stored by job index. A sweep therefore produces
 * bit-identical stats whether it runs on 1 thread or 8.
 *
 * Fault isolation: each run executes under ScopedThrowingFatal, so an
 * exception or fatal() inside one simulation becomes a structured
 * error record in that run's SweepOutcome instead of taking down the
 * campaign. A per-run soft timeout (SweepJob::softTimeoutSeconds)
 * aborts runaway runs via the Simulator's abort hook. A failed run is
 * never re-executed: by the determinism contract it would fail the
 * same way again. The exported JSON records per-run
 * status/error/attempts plus a configuration fingerprint, and
 * the result store (`--store-dir`) replays every run already completed
 * with the same fingerprint, so re-sweeping a grid re-runs only what
 * failed or changed.
 *
 * The runner also owns the machine-readable output path: one JSON
 * document per sweep with a run manifest (tool, git-describe,
 * configuration echo, seed, thread count, wall-clock) and, per run,
 * the whole-run result plus every registered scalar and distribution
 * (see DESIGN.md for the schema).
 */

#ifndef VSV_HARNESS_SWEEP_HH
#define VSV_HARNESS_SWEEP_HH

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/minijson.hh"
#include "harness/fingerprint.hh"
#include "harness/simulator.hh"
#include "harness/warmup_cache.hh"
#include "store/store.hh"

namespace vsv
{

/** One unit of sweep work: a fully specified simulation. */
struct SweepJob
{
    /** Stable identifier, e.g. "mcf/vsv-fsm"; unique within a sweep. */
    std::string id;
    SimulationOptions options;
    /**
     * Per-run soft timeout in wall-clock seconds (0 = none). Enforced
     * cooperatively through SimulationOptions::abortHook, so an
     * expired run stops at the next poll point and is recorded as
     * SweepStatus::Timeout.
     */
    double softTimeoutSeconds = 0.0;
};

/** How one sweep run ended. */
enum class SweepStatus
{
    Ok,       ///< completed normally; result/stats are valid
    Error,    ///< exception or fatal() escaped the run
    Timeout,  ///< the abort hook (soft timeout) stopped the run
};

/** JSON spelling of a status: "ok", "error", "timeout". */
std::string_view sweepStatusName(SweepStatus status);

/** What one finished job leaves behind. */
struct SweepOutcome
{
    std::string id;
    SweepStatus status = SweepStatus::Ok;
    /** What went wrong; empty when status is Ok. */
    std::string error;
    /** Executions: 1 for a fresh run; a store replay reports those of
     *  the run that was recorded. */
    unsigned attempts = 0;
    /** configFingerprint() of the options that produced this run. */
    std::string fingerprint;
    SimulationResult result;
    /** Every registered scalar, by dotted name. */
    std::map<std::string, double> scalars;
    /** The full StatRegistry::dumpJson document for this run. */
    std::string statsJson;
    /** The full StatRegistry::dump text (for --stats style output). */
    std::string statsText;

    bool ok() const { return status == SweepStatus::Ok; }
};

/**
 * Lockstep batching effectiveness, reported in the sweep manifest so
 * a silent fallback to serial execution is visible in the JSON rather
 * than inferred from wall-time (see lockstep.hh).
 */
struct LockstepStats
{
    bool enabled = false;
    unsigned maxReplicas = 0;       ///< batch width cap (configs/batch)
    std::uint64_t batches = 0;      ///< batches formed (>= 2 members)
    std::uint64_t batchedRuns = 0;  ///< jobs executed as batch members
    std::uint64_t serialRuns = 0;   ///< jobs executed serially
    std::uint64_t largestBatch = 0; ///< members in the biggest batch
    /** Batches that failed mid-flight and re-ran serially. */
    std::uint64_t fallbacks = 0;
    /** Ineligible job count per reason (lockstepIneligibleReason). */
    std::map<std::string, std::uint64_t> ineligible;
};

/** Fixed-size thread pool executing SweepJobs in any order. */
class SweepRunner
{
  public:
    /** @param jobs worker threads; 0 picks the hardware concurrency */
    explicit SweepRunner(unsigned jobs);

    /**
     * Run every job with per-run fault isolation; blocks until all
     * are done. Failed runs surface as Error/Timeout outcomes; the
     * process is never torn down by one bad run.
     * @return outcomes in submission order, independent of schedule
     */
    std::vector<SweepOutcome> run(const std::vector<SweepJob> &jobs);

    unsigned threads() const { return threads_; }

    /**
     * Deduplicate functional warmup across this runner's jobs through
     * `cache` (shared by all workers; must outlive run()). Runs whose
     * warmup fingerprints collide warm up once and restore snapshots
     * thereafter - bit-identical results either way.
     */
    void enableWarmupSnapshots(WarmupSnapshotCache &cache)
    {
        snapshotCache_ = &cache;
    }

    const WarmupSnapshotCache *warmupCache() const
    {
        return snapshotCache_;
    }

    /**
     * Batch structurally-identical jobs into lockstep groups of at
     * most `maxReplicas` configs sharing one front-end (lockstep.hh);
     * 0 disables (the default). Results stay bit-identical to serial
     * execution; a failed batch transparently falls back to per-job
     * serial runs. Effectiveness counters land in lockstepStats().
     */
    void enableLockstep(unsigned maxReplicas)
    {
        lockstepMax_ = maxReplicas;
    }

    unsigned lockstepMax() const { return lockstepMax_; }

    /** Batching counters of the most recent run(). */
    const LockstepStats &lockstepStats() const { return lockstepStats_; }

    /**
     * Serve jobs from (and record Ok runs into) a content-addressed
     * result store (store/store.hh; must outlive run()). A job whose
     * configFingerprint has a valid stored entry is never simulated:
     * its recorded bytes replay as a status=ok outcome, byte-identical
     * to the run that produced them. Store trouble (corrupt entries,
     * full disks) degrades to a plain miss - the sweep still runs.
     */
    void enableResultStore(store::ResultStore &store)
    {
        resultStore_ = &store;
    }

    const store::ResultStore *resultStore() const { return resultStore_; }

    /**
     * Run one job inline with no isolation: exceptions propagate and
     * fatal() exits, as in a plain single-run binary. A non-null
     * `cache` deduplicates the warmup (see enableWarmupSnapshots).
     */
    static SweepOutcome runOne(const SweepJob &job,
                               WarmupSnapshotCache *cache = nullptr);

    /**
     * Run one job under fault isolation: never throws; a failure is
     * returned as an Error/Timeout outcome with attempts == 1. The
     * soft timeout is installed here.
     */
    static SweepOutcome runOneIsolated(const SweepJob &job,
                                       WarmupSnapshotCache *cache =
                                           nullptr);

  private:
    unsigned threads_;
    WarmupSnapshotCache *snapshotCache_ = nullptr;
    unsigned lockstepMax_ = 0;
    LockstepStats lockstepStats_;
    store::ResultStore *resultStore_ = nullptr;
};

/**
 * One unit of a SweepRunner's static schedule: a lockstep batch, or
 * the serial job that owns a warmup fingerprint together with the
 * serial jobs that restore its snapshot.
 */
struct SweepTask
{
    /** Submission indices run together: a batch's members, or the
     *  one owner job. */
    std::vector<std::size_t> members;
    /** The owner's consumers - the other serial jobs with its
     *  warmupFingerprint, in submission order; empty for a batch. */
    std::vector<std::size_t> consumers;
    /** The owner's warmupFingerprint; empty for a batch. */
    std::string warmupFingerprint;
};

/**
 * The static order a SweepRunner's pool takes its tasks in, from the
 * lockstep batches (`batches`, in plan order) and the serial jobs
 * (`serial`, any order; submission indices into `jobs`).
 *
 * Batches come first and intact: they warm up fresh, outside the
 * warmup cache. Then comes one task per warmupFingerprint, owned by
 * its first serial job in submission order, longest
 * warmupInstructions first, ties in submission order. The owner
 * computes the warmup; its consumers are not tasks of their own. The
 * runner queues them the moment the owner's warmup is published, and
 * a worker drains that ready queue before it starts the next owner.
 * So the workers start by computing distinct warmups side by side, no
 * worker blocks on a warmup still running, and a snapshot's last
 * restore follows its warmup closely: the cache holds at most one
 * snapshot per worker. Every job appears exactly once, as a member or
 * as a consumer.
 */
std::vector<SweepTask>
orderSweepTasks(const std::vector<SweepJob> &jobs,
                const std::vector<std::vector<std::size_t>> &batches,
                std::vector<std::size_t> serial);

/** A completed run's outcome: `result` plus every scalar and both
 *  dumps of `stats`. Serial runs and lockstep batches share it. */
SweepOutcome completedOutcome(const SweepJob &job,
                              const SimulationResult &result,
                              const StatRegistry &stats);

/**
 * Package a completed (status=ok) outcome as a store entry: the result
 * re-serializes through writeSimulationResultJson so the stored bytes
 * are exactly what a manifest would have written. Call only for Ok
 * outcomes - failed runs are never cached.
 */
store::StoreEntry storeEntryFromOutcome(const SweepOutcome &outcome);

/**
 * Replay a stored entry as a status=ok outcome for run id `id`:
 * result/scalars parse back from the recorded documents, attempts and
 * the stats bytes carry over verbatim. Throws when the recorded
 * documents do not decode exactly (parseSimulationResultJson,
 * parseScalarsFromStats), an empty stats document included.
 */
SweepOutcome outcomeFromStoreEntry(const std::string &id,
                                   const store::StoreEntry &entry);

/**
 * SweepRunner's store probe: look up the job's configFingerprint and
 * replay the entry, or nullopt on a miss. An entry that does not
 * replay is a store bug, not a sweep failure: the store quarantines
 * it and counts it corrupt, so the run simulates and its fresh
 * outcome re-inserts.
 */
std::optional<SweepOutcome> tryServeFromStore(store::ResultStore &store,
                                              const SweepJob &job);

/**
 * Deterministic per-run seed derivation (splitmix64 mixing): depends
 * only on the two seeds, so any execution order reproduces it. A
 * sweep seed of 0 means "leave the profile seed alone", keeping the
 * published figure numbers stable by default.
 */
std::uint64_t mixSeed(std::uint64_t sweepSeed, std::uint64_t profileSeed);

/** Apply mixSeed to a run's workload profile (no-op when seed is 0). */
void applyRunSeed(SimulationOptions &options, std::uint64_t sweepSeed);

/** What the sweep JSON records about the campaign itself. */
struct SweepManifest
{
    std::string tool;                 ///< producing binary's name
    std::uint64_t seed = 0;           ///< --seed (0 = profile defaults)
    unsigned threads = 1;             ///< worker threads actually used
    double wallSeconds = 0.0;         ///< sweep wall-clock duration
    /** Warmup snapshot cache effectiveness (enabled=false = off). */
    SnapshotCacheStats snapshotCache;
    /** Lockstep batching effectiveness (enabled=false = off). */
    LockstepStats lockstep;
    /** Result-store counters (enabled=false omits the block). */
    store::ResultStoreStats store;
    /** Echo of the command-line configuration (Config::items()). */
    std::vector<std::pair<std::string, std::string>> config;
};

/** The source tree's `git describe --always --dirty` at build time. */
std::string_view buildGitDescribe();

/**
 * Write the sweep document: `{"manifest": {...}, "runs": [...]}` with
 * one entry per outcome carrying id/fingerprint/status/error/attempts
 * plus, for completed runs, the whole-run result and the full stats
 * dump (`null` for failed runs).
 */
void writeSweepJson(std::ostream &os, const SweepManifest &manifest,
                    const std::vector<SweepOutcome> &outcomes);

/**
 * Serialize one SimulationResult exactly as it appears under a
 * manifest run's "result" key (including the host-dependent
 * "throughput" block). Shared by the sweep exporter and the result
 * store, so a replayed result re-serializes to the same bytes the
 * original run's export wrote: doubles go through jsonNumber's %.17g
 * (round-trip exact), integers are written directly.
 */
void writeSimulationResultJson(std::ostream &os,
                               const SimulationResult &r);

/**
 * Inverse of writeSimulationResultJson, used by the store replay and
 * the benchmark's manifest reader. Strict: every key must be present;
 * integer fields must be integral and in [0, 2^64); double fields
 * must be finite numbers or null (jsonNumber's encoding of a
 * non-finite value, which parses back as 0.0). Anything else throws.
 */
SimulationResult parseSimulationResultJson(const minijson::Value &r);

/**
 * Rebuild an outcome's scalar map from its stats document (the
 * "scalars" object of StatRegistry::dumpJson output). Each scalar must
 * be a number or null (jsonNumber's encoding of a non-finite value,
 * which reads as 0.0). A document that is not an object, lacks the
 * "scalars" object or holds any other scalar value throws, so a
 * stored entry that carries one fails replay and is re-simulated.
 */
std::map<std::string, double> parseScalarsFromStats(
    const minijson::Value &stats);

} // namespace vsv

#endif // VSV_HARNESS_SWEEP_HH
