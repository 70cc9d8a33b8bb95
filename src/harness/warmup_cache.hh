/**
 * @file
 * Warmup snapshot cache: deduplicates functional warmup across the
 * runs of a sweep.
 *
 * Most sweeps run many configurations of the same benchmark (Figure 4
 * alone runs three VSV policies per workload), and every one of those
 * runs pays for an identical functional warmup. The cache keys each
 * run by warmupFingerprint() - a hash of exactly the options that can
 * influence post-warmup state - and makes the first run per
 * fingerprint warm up for everyone: it serializes its post-warmup
 * state (src/snapshot/snapshot.hh) and later runs restore from the
 * bytes instead of re-warming, with bit-identical results (enforced
 * by tests/integration/snapshot_equivalence_test and the golden-stats
 * gate).
 *
 * Concurrency: first-worker-computes. The first caller to reach a
 * fingerprint claims it (a shared_future in the entry map); a caller
 * that arrives before the bytes are published blocks on them, so each
 * fingerprint is warmed exactly once per campaign no matter the
 * thread count. A SweepRunner's own jobs never block: it starts a
 * fingerprint's restoring runs only once its warmup has settled (see
 * Residency). A failed computation publishes null and the waiters fall
 * back to fresh warmups, so a poisoned entry can never wedge the
 * sweep.
 *
 * Residency: a caller that knows its runs declares them first
 * (declareUses): how many jobs will acquire a fingerprint, plus a
 * callback fired once its warmup settles. One of those jobs computes
 * the warmup and the rest restore it; the cache drops the bytes as
 * the last declared restore takes them, and forgets the fingerprint
 * when the last job ends (releaseUse). A declared fingerprint with a
 * single use is never serialized unless it goes to disk. SweepRunner
 * queues a fingerprint's restoring runs from the callback, so none of
 * them waits on a future and a sweep holds at most one snapshot per
 * worker instead of one per fingerprint. A retried run that finds its
 * fingerprint's bytes already dropped warms up fresh. Callers that
 * declare nothing (single runs, the benchmark's serial replay,
 * lockstep-fallback members) keep what they publish until the cache is
 * destroyed, shared with every later acquire().
 *
 * Persistence: with a non-empty disk directory (--snapshot-dir),
 * every computed snapshot, single-use ones included, is also written
 * as <dir>/<fingerprint>.vsvsnap, and the directory is probed before
 * computing, letting warmup survive across campaigns; the in-memory
 * copy is still dropped after its last declared restore.
 * The files follow the result store's discipline
 * (src/store/atomic_file.hh): write-to-temp + rename, so readers never
 * see partial files, and a corrupt or stale file is quarantined as
 * `.bad` and counted as a miss, never fatal. They keep their own
 * format and per-section checksums, with no store envelope.
 */

#ifndef VSV_HARNESS_WARMUP_CACHE_HH
#define VSV_HARNESS_WARMUP_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "harness/simulator.hh"
#include "snapshot/bytes.hh"

namespace vsv
{

/** Cache effectiveness counters, echoed in the sweep manifest. */
struct SnapshotCacheStats
{
    bool enabled = false;
    /** Runs that restored from in-memory snapshot bytes. */
    std::uint64_t hits = 0;
    /** Fresh warmups computed (== distinct fingerprints warmed). */
    std::uint64_t misses = 0;
    /** Snapshots successfully loaded from the disk directory. */
    std::uint64_t diskHits = 0;
    /** Unusable snapshots (corrupt, truncated, mismatched); each one
     *  degraded to a fresh warmup, never to a failed run. */
    std::uint64_t failures = 0;
};

/**
 * How many snapshots a cache holds, for tests of the residency
 * contract; never part of the manifest.
 */
struct SnapshotResidency
{
    /** Snapshots whose bytes the cache holds right now. */
    std::size_t live = 0;
    /** The most snapshots it has held at once. */
    std::size_t peakLive = 0;
    /** Warmed simulators serialized into snapshot bytes. */
    std::uint64_t encoded = 0;
};

/**
 * Shared warmup-state cache for one sweep campaign. Thread-safe; one
 * instance is shared by every worker of a SweepRunner.
 */
class WarmupSnapshotCache
{
  public:
    /** @param disk_dir optional snapshot directory ("" = memory only);
     *         created if absent, fatal() if that fails. */
    explicit WarmupSnapshotCache(std::string disk_dir = {});

    /**
     * Produce a warmed-up Simulator for `options`, by restoring a
     * cached snapshot when one exists for the warmup fingerprint and
     * by running (and publishing) the warmup otherwise. The returned
     * simulator is exclusively the caller's; only the snapshot bytes
     * are shared. Throws/fatal()s only for errors a fresh warmup
     * would also hit (bad configuration, abort hook).
     */
    std::unique_ptr<Simulator> acquire(const SimulationOptions &options);

    /**
     * Declare that `uses` (>= 1) more jobs will acquire() `fingerprint`
     * and then releaseUse() it: one computes the warmup, unless it is
     * already claimed, and the rest restore it. `onSettled` runs once,
     * on whichever thread settles the fingerprint, when its warmup is
     * published or fails (at once if that already happened); it must
     * not call back into the cache.
     */
    void declareUses(const std::string &fingerprint, std::size_t uses,
                     std::function<void()> onSettled);

    /**
     * One declared job of `fingerprint` has ended, after all of its
     * attempts; the last one forgets the fingerprint. If nothing ever
     * claimed it (its first job failed before acquire()), it settles
     * here as failed, and the jobs still to come warm up fresh.
     */
    void releaseUse(const std::string &fingerprint);

    SnapshotCacheStats stats() const;

    SnapshotResidency residency() const;

    const std::string &diskDir() const { return diskDir_; }

  private:
    /** Published snapshot bytes; null marks a failed computation. */
    using Bytes = std::shared_ptr<const SnapshotBytes>;

    std::string snapshotPath(const std::string &fingerprint) const;

    /**
     * Restore `sim` from snapshot bytes. Returns why the bytes were
     * rejected, empty on success. A rejection leaves `sim` partially
     * restored - the caller must discard it and build a fresh one.
     */
    static std::string tryRestore(Simulator &sim, std::string_view bytes,
                                  const std::string &fingerprint);

    struct Entry
    {
        /** Invalid until a computation claims the entry. */
        std::shared_future<Bytes> bytes;
        bool settled = false;
        /** Settled with non-null bytes, which count as live. */
        bool holdsBytes = false;
        /** Declared jobs still to release; 0 = undeclared, kept. */
        std::size_t uses = 0;
        /** Declared restores still to come; the last drops the
         *  bytes. */
        std::size_t restores = 0;
        std::function<void()> onSettled;
    };

    /** A caller took the bytes to restore from them. */
    void countRestore(const std::string &fingerprint);

    /** Publish a claimed computation's outcome and settle its entry. */
    void publish(const std::string &fingerprint,
                 std::promise<Bytes> &promise, Bytes bytes);

    std::string diskDir_;
    mutable std::mutex mutex;
    std::map<std::string, Entry> entries;
    std::size_t live_ = 0;
    std::size_t peakLive_ = 0;

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> diskHits_{0};
    std::atomic<std::uint64_t> failures_{0};
    std::atomic<std::uint64_t> encoded_{0};
};

} // namespace vsv

#endif // VSV_HARNESS_WARMUP_CACHE_HH
