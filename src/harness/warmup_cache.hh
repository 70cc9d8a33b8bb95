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
 * Concurrency: first-worker-computes. Under a parallel sweep the
 * first worker to reach a fingerprint claims it (a shared_future in
 * the entry map) and the others block on the published bytes, so each
 * fingerprint is warmed exactly once per campaign no matter the
 * thread count. A failed computation publishes null and the waiters
 * fall back to fresh warmups, so a poisoned entry can never wedge the
 * sweep.
 *
 * Persistence: with a non-empty disk directory (--snapshot-dir),
 * snapshots are also written as <dir>/<fingerprint>.vsvsnap and
 * probed before computing, letting warmup survive across campaigns.
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
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "harness/simulator.hh"

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

    SnapshotCacheStats stats() const;

    const std::string &diskDir() const { return diskDir_; }

  private:
    /** Published snapshot bytes; null marks a failed computation. */
    using Bytes = std::shared_ptr<const std::string>;

    std::string snapshotPath(const std::string &fingerprint) const;

    /**
     * Restore `sim` from snapshot bytes. Returns why the bytes were
     * rejected, empty on success. A rejection leaves `sim` partially
     * restored - the caller must discard it and build a fresh one.
     */
    static std::string tryRestore(Simulator &sim,
                                  const std::string &bytes,
                                  const std::string &fingerprint);

    std::string diskDir_;
    std::mutex mutex;
    /** fingerprint -> eventually-published snapshot bytes. */
    std::map<std::string, std::shared_future<Bytes>> entries;

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> diskHits_{0};
    std::atomic<std::uint64_t> failures_{0};
};

} // namespace vsv

#endif // VSV_HARNESS_WARMUP_CACHE_HH
