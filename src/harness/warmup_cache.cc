#include "warmup_cache.hh"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <utility>

#include "common/logging.hh"
#include "harness/sweep.hh"
#include "store/atomic_file.hh"

namespace vsv
{

namespace
{

/** Settled, with nothing to restore: callers warm up fresh. */
std::shared_future<std::shared_ptr<const SnapshotBytes>>
nullBytes()
{
    std::promise<std::shared_ptr<const SnapshotBytes>> none;
    none.set_value(nullptr);
    return none.get_future().share();
}

} // namespace

WarmupSnapshotCache::WarmupSnapshotCache(std::string disk_dir)
    : diskDir_(std::move(disk_dir))
{
    if (diskDir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(diskDir_, ec);
    if (ec) {
        fatal("cannot create snapshot directory " + diskDir_ + ": " +
              ec.message());
    }
}

std::string
WarmupSnapshotCache::snapshotPath(const std::string &fingerprint) const
{
    return diskDir_ + "/" + fingerprint + ".vsvsnap";
}

std::string
WarmupSnapshotCache::tryRestore(Simulator &sim, std::string_view bytes,
                                const std::string &fingerprint)
{
    try {
        // restoreFrom reports structural problems through fatal();
        // turn those into exceptions (the guard nests safely inside a
        // sweep worker's own) so a bad snapshot degrades to a fresh
        // warmup instead of failing the run.
        ScopedThrowingFatal guard;
        sim.restoreFrom(bytes, fingerprint);
        return {};
    } catch (const std::exception &e) {
        return e.what();
    }
}

std::unique_ptr<Simulator>
WarmupSnapshotCache::acquire(const SimulationOptions &options)
{
    const std::string fingerprint = warmupFingerprint(options);

    std::promise<Bytes> promise;
    std::shared_future<Bytes> future;
    bool computer = false;
    bool keep = true;
    {
        std::lock_guard<std::mutex> lock(mutex);
        Entry &entry = entries[fingerprint];
        if (!entry.bytes.valid()) {
            entry.bytes = promise.get_future().share();
            computer = true;
            // A declared fingerprint with no restores to come keeps
            // nothing; only the disk could still want its bytes.
            keep = entry.uses == 0 || entry.restores > 0;
        }
        future = entry.bytes;
    }

    if (!computer) {
        // Another job owns this fingerprint; wait until it publishes
        // (declared jobs only get here once it has). Null bytes mean
        // its computation failed or kept nothing - fall back to a
        // fresh warmup, which will surface the same error under this
        // run's id if the configuration itself is bad.
        const Bytes bytes = future.get();
        if (bytes) {
            // This copy of the pointer carries the restore, so the
            // entry may let go of the bytes now.
            countRestore(fingerprint);
            auto sim = std::make_unique<Simulator>(options);
            const std::string why =
                tryRestore(*sim, bytes->view(), fingerprint);
            if (why.empty()) {
                hits_.fetch_add(1, std::memory_order_relaxed);
                return sim;
            }
            // A partially restored simulator is unusable; discard it
            // and warm a fresh one.
            warn("warmup snapshot " + fingerprint + " rejected: " + why);
            failures_.fetch_add(1, std::memory_order_relaxed);
        }
        auto sim = std::make_unique<Simulator>(options);
        sim->warmup();
        return sim;
    }

    // This job computes the fingerprint's warmup: probe the disk,
    // else warm up fresh; either way publish exactly once.
    std::unique_ptr<Simulator> sim;
    Bytes bytes;
    try {
        if (!diskDir_.empty()) {
            const std::string path = snapshotPath(fingerprint);
            if (std::optional<SnapshotBytes> disk =
                    store::readFile<SnapshotBytes>(path)) {
                bytes =
                    std::make_shared<const SnapshotBytes>(std::move(*disk));
                sim = std::make_unique<Simulator>(options);
                const std::string why =
                    tryRestore(*sim, bytes->view(), fingerprint);
                if (why.empty()) {
                    diskHits_.fetch_add(1, std::memory_order_relaxed);
                } else {
                    // Quarantined, so no later worker (or campaign
                    // sharing the directory) re-reads and re-rejects
                    // the file.
                    failures_.fetch_add(1, std::memory_order_relaxed);
                    store::quarantineFile(path, "warmup snapshot", why);
                    bytes = nullptr;
                    sim = nullptr;
                }
            }
        }

        if (!sim) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            sim = std::make_unique<Simulator>(options);
            sim->warmup();
            if (keep || !diskDir_.empty()) {
                bytes = std::make_shared<const SnapshotBytes>(
                    sim->snapshot(fingerprint));
                encoded_.fetch_add(1, std::memory_order_relaxed);
                // Disk trouble only costs persistence, never the run.
                if (!diskDir_.empty())
                    store::writeFileAtomically(snapshotPath(fingerprint),
                                               bytes->view());
            }
        }
    } catch (...) {
        // Unblock the waiters before propagating; they warm up fresh.
        publish(fingerprint, promise, nullptr);
        throw;
    }
    publish(fingerprint, promise, keep ? std::move(bytes) : nullptr);
    return sim;
}

void
WarmupSnapshotCache::publish(const std::string &fingerprint,
                             std::promise<Bytes> &promise, Bytes bytes)
{
    const bool holds = bytes != nullptr;
    promise.set_value(std::move(bytes));
    std::function<void()> onSettled;
    {
        std::lock_guard<std::mutex> lock(mutex);
        // releaseUse() erases only settled entries, so the claimed
        // entry is still here.
        Entry &entry = entries.at(fingerprint);
        entry.settled = true;
        entry.holdsBytes = holds;
        if (holds)
            peakLive_ = std::max(peakLive_, ++live_);
        onSettled = std::exchange(entry.onSettled, nullptr);
    }
    if (onSettled)
        onSettled();
}

void
WarmupSnapshotCache::countRestore(const std::string &fingerprint)
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = entries.find(fingerprint);
    if (it == entries.end() || it->second.restores == 0)
        return;
    Entry &entry = it->second;
    if (--entry.restores == 0 && entry.holdsBytes) {
        // The last declared restore has its own reference; later
        // acquires (a retried run) find null and warm up fresh.
        entry.bytes = nullBytes();
        entry.holdsBytes = false;
        --live_;
    }
}

void
WarmupSnapshotCache::declareUses(const std::string &fingerprint,
                                 std::size_t uses,
                                 std::function<void()> onSettled)
{
    VSV_ASSERT(uses >= 1, "declared no uses of " + fingerprint);
    {
        std::lock_guard<std::mutex> lock(mutex);
        Entry &entry = entries[fingerprint];
        entry.uses += uses;
        // Unless something has already claimed the fingerprint, one
        // of these jobs computes it and the rest restore.
        entry.restores += entry.bytes.valid() ? uses : uses - 1;
        if (!entry.settled) {
            entry.onSettled = std::move(onSettled);
            return;
        }
    }
    if (onSettled)
        onSettled();
}

void
WarmupSnapshotCache::releaseUse(const std::string &fingerprint)
{
    std::function<void()> onSettled;
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = entries.find(fingerprint);
        if (it == entries.end() || it->second.uses == 0)
            return;
        Entry &entry = it->second;
        if (!entry.bytes.valid()) {
            // Released unclaimed: the job failed before acquire().
            // Settle as a failed computation would, so the remaining
            // jobs warm up fresh instead of waiting for bytes.
            entry.bytes = nullBytes();
            entry.settled = true;
            onSettled = std::exchange(entry.onSettled, nullptr);
        }
        if (--entry.uses == 0) {
            // Every declared job has ended. An undeclared computation
            // still in flight keeps the entry (as an undeclared one)
            // until it publishes.
            entry.onSettled = nullptr;
            if (entry.settled) {
                if (entry.holdsBytes)
                    --live_;
                entries.erase(it);
            }
        }
    }
    if (onSettled)
        onSettled();
}

SnapshotCacheStats
WarmupSnapshotCache::stats() const
{
    SnapshotCacheStats out;
    out.enabled = true;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.diskHits = diskHits_.load(std::memory_order_relaxed);
    out.failures = failures_.load(std::memory_order_relaxed);
    return out;
}

SnapshotResidency
WarmupSnapshotCache::residency() const
{
    SnapshotResidency out;
    {
        std::lock_guard<std::mutex> lock(mutex);
        out.live = live_;
        out.peakLive = peakLive_;
    }
    out.encoded = encoded_.load(std::memory_order_relaxed);
    return out;
}

} // namespace vsv
