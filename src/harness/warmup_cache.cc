#include "warmup_cache.hh"

#include <filesystem>
#include <istream>
#include <optional>
#include <sstream>
#include <streambuf>
#include <utility>

#include "common/logging.hh"
#include "harness/sweep.hh"
#include "store/atomic_file.hh"

namespace vsv
{

namespace
{

/** Reads a string's bytes in place: restores copy nothing. */
class ReadOnlyBuffer : public std::streambuf
{
  public:
    explicit ReadOnlyBuffer(const std::string &bytes)
    {
        // The get area is never written through: std::streambuf only
        // offers a mutable pointer type, and no putback is made.
        char *data = const_cast<char *>(bytes.data());
        setg(data, data, data + bytes.size());
    }
};

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
WarmupSnapshotCache::tryRestore(Simulator &sim, const std::string &bytes,
                                const std::string &fingerprint)
{
    try {
        // restoreFrom reports structural problems through fatal();
        // turn those into exceptions (the guard nests safely inside a
        // sweep worker's own) so a bad snapshot degrades to a fresh
        // warmup instead of failing the run.
        ScopedThrowingFatal guard;
        ReadOnlyBuffer buffer(bytes);
        std::istream is(&buffer);
        sim.restoreFrom(is, fingerprint);
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
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = entries.find(fingerprint);
        if (it == entries.end()) {
            future = promise.get_future().share();
            entries.emplace(fingerprint, future);
            computer = true;
        } else {
            future = it->second;
        }
    }

    if (!computer) {
        // Another worker owns this fingerprint; block until it
        // publishes. Null bytes mean its computation failed - fall
        // back to a fresh warmup, which will surface the same error
        // under this run's id if the configuration itself is bad.
        const Bytes bytes = future.get();
        if (bytes) {
            auto sim = std::make_unique<Simulator>(options);
            const std::string why = tryRestore(*sim, *bytes, fingerprint);
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

    // This worker computes the fingerprint's warmup: probe the disk,
    // else warm up fresh; either way publish the bytes exactly once.
    try {
        if (!diskDir_.empty()) {
            const std::string path = snapshotPath(fingerprint);
            if (std::optional<std::string> disk = store::readFile(path)) {
                const Bytes bytes =
                    std::make_shared<const std::string>(std::move(*disk));
                auto sim = std::make_unique<Simulator>(options);
                const std::string why = tryRestore(*sim, *bytes, fingerprint);
                if (why.empty()) {
                    diskHits_.fetch_add(1, std::memory_order_relaxed);
                    promise.set_value(bytes);
                    return sim;
                }
                // Quarantined, so no later worker (or campaign sharing
                // the directory) re-reads and re-rejects the file.
                failures_.fetch_add(1, std::memory_order_relaxed);
                store::quarantineFile(path, "warmup snapshot", why);
            }
        }

        misses_.fetch_add(1, std::memory_order_relaxed);
        auto sim = std::make_unique<Simulator>(options);
        sim->warmup();
        std::ostringstream os;
        sim->snapshotTo(os, fingerprint);
        // os.str() copies to the exact size; moving the stream's
        // string out would keep its spare capacity in every entry.
        const Bytes bytes =
            std::make_shared<const std::string>(os.str());
        // Disk trouble only costs persistence, never the run.
        if (!diskDir_.empty())
            store::writeFileAtomically(snapshotPath(fingerprint), *bytes);
        promise.set_value(bytes);
        return sim;
    } catch (...) {
        // Unblock the waiters before propagating; they warm up fresh.
        promise.set_value(nullptr);
        throw;
    }
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

} // namespace vsv
