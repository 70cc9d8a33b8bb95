/**
 * @file
 * Content-addressed result store: "never simulate the same config
 * twice" (STORE.md is the normative on-disk and protocol spec;
 * DESIGN.md §5j the design discussion).
 *
 * Every sweep run is a pure function of its SimulationOptions, and
 * configFingerprint() (src/harness/sweep.hh) already names that
 * function's input with a stable 64-bit hash. The store persists the
 * run's exact output bytes - the result JSON writeSimulationResultJson
 * emits plus the full stats dump and stats text, all kept as opaque
 * strings - under <dir>/<fp[0:2]>/<fp>.vsvres, so any later sweep
 * that reaches the same fingerprint replays the recorded bytes
 * instead of simulating.
 *
 * Durability discipline (src/store/atomic_file.hh, shared with
 * WarmupSnapshotCache): entries are written to a per-process temp
 * name and rename()d into place, so a concurrent reader (or a killed
 * sweep) never observes a partial entry, and concurrent writers of
 * the same fingerprint race benignly (last rename wins; both wrote
 * identical payloads). Each entry is a checksummed envelope - FNV-1a
 * 64 over the raw payload. A corrupt entry is quarantined (renamed to
 * `.bad`) on first read and degrades to a miss, never to a failed
 * run.
 *
 * insert() writes synchronously under one mutex: entries are a few
 * KB, so a background writer would buy nothing, and the mutex is what
 * makes one process write and count each fingerprint exactly once.
 *
 * This library deliberately knows nothing about SweepOutcome or the
 * harness: it stores fingerprint-keyed records of opaque strings.
 * The adapters between StoreEntry and SweepOutcome live in
 * src/harness/sweep.hh, keeping the layering acyclic
 * (common/stats <- store <- harness).
 */

#ifndef VSV_STORE_STORE_HH
#define VSV_STORE_STORE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "common/hash.hh"

namespace vsv
{
namespace store
{

/** Bumped on any incompatible envelope or payload schema change. */
constexpr std::uint8_t kStoreFormatVersion = 2;

/**
 * One stored run: everything a sweep needs to replay the outcome
 * byte-identically. The three documents are opaque strings - the
 * store never re-serializes them through a parser, so the bytes that
 * went in are the bytes that come out.
 */
struct StoreEntry
{
    /** configFingerprint() of the options that produced the run. */
    std::string fingerprint;
    /** Executions of the recorded run (1 for a fresh run). */
    unsigned attempts = 1;
    /** writeSimulationResultJson bytes (includes the original run's
     *  host-dependent throughput block - stripped by consumers that
     *  compare manifests, preserved for provenance). */
    std::string resultJson;
    /** StatRegistry::dumpJson document. */
    std::string statsJson;
    /** StatRegistry::dump text. */
    std::string statsText;
};

/** Store effectiveness counters, echoed in the sweep manifest's
 *  `store` block (enabled=false omits the block entirely). */
struct ResultStoreStats
{
    bool enabled = false;
    /** Lookups served from a valid on-disk entry. */
    std::uint64_t hits = 0;
    /** Lookups with no usable entry (absent, invalid or corrupt). */
    std::uint64_t misses = 0;
    /** Entries written (an already-present fingerprint is skipped). */
    std::uint64_t inserts = 0;
    /** Entries rejected and quarantined as `.bad` (each also counted
     *  as a miss; the run re-simulates and re-inserts). */
    std::uint64_t corrupt = 0;
    /** Inserts that could not be persisted (disk trouble); the sweep
     *  itself is unaffected. */
    std::uint64_t writeFailures = 0;
};

/**
 * A persistent result store rooted at one directory. Thread-safe: any
 * number of threads may lookup() and insert() concurrently, and any
 * number of processes may share one directory (the rename discipline
 * makes cross-process races benign).
 */
class ResultStore
{
  public:
    /** @param dir store root; created (with parents) if absent,
     *         fatal() if that fails */
    explicit ResultStore(std::string dir);

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Fetch the entry for a fingerprint. nullopt on a miss - absent
     * file, malformed fingerprint, or a corrupt entry (which is
     * quarantined as `<entry>.bad` with a warn() naming the path, so
     * it is read and rejected at most once). `replay`, when given,
     * decodes the entry's documents and throws on any it cannot
     * decode exactly; such an entry is corrupt too, and only an entry
     * that replays counts as a hit.
     */
    std::optional<StoreEntry> lookup(
        const std::string &fingerprint,
        const std::function<void(const StoreEntry &)> &replay = {});

    /**
     * Persist an entry before returning. An entry whose fingerprint
     * is already on disk is skipped (the store is content-addressed:
     * same fingerprint, same bytes). Invalid fingerprints and disk
     * trouble are counted writeFailures with a warn(), never errors.
     */
    void insert(const StoreEntry &entry);

    /** No-op: insert() is synchronous, so every entry has landed
     *  when it returns. Deprecated; kept until its last caller drops
     *  the call, then removed. */
    void flush() {}

    ResultStoreStats stats() const;

    const std::string &dir() const { return dir_; }

    /** `<dir>/<fp[0:2]>/<fp>.vsvres`; exposed for tests and ops. */
    std::string entryPath(const std::string &fingerprint) const;

    /** 16 lowercase hex digits - the only shape lookup/insert accept
     *  (anything else is rejected before it can name a path). */
    static bool validFingerprint(const std::string &fingerprint);

  private:
    std::string dir_;

    /** Serializes insert()'s probe + write + rename. */
    std::mutex insertMutex_;

    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> inserts_{0};
    std::atomic<std::uint64_t> corrupt_{0};
    std::atomic<std::uint64_t> writeFailures_{0};
};

namespace detail
{

// Exposed for unit tests; everything below is an implementation
// detail of the .vsvres envelope.

/** The envelope checksum (common/hash.hh). */
using vsv::fnv1a64;

/** Serialize an entry into the JSON payload stored inside the
 *  envelope. */
std::string encodeEntryPayload(const StoreEntry &entry);

/** Parse a payload back; throws std::runtime_error on any shape
 *  problem (including a fingerprint that differs from `expected`). */
StoreEntry decodeEntryPayload(const std::string &payload,
                              const std::string &expected);

/** Wrap a payload in the checksummed envelope. */
std::string encodeEnvelope(const std::string &payload);

/** Unwrap an envelope; throws std::runtime_error on a bad magic,
 *  version, padding, size or checksum. */
std::string decodeEnvelope(const std::string &envelope);

} // namespace detail

} // namespace store
} // namespace vsv

#endif // VSV_STORE_STORE_HH
