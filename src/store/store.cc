#include "store.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "common/logging.hh"
#include "common/minijson.hh"
#include "stats/stats.hh"

namespace vsv
{
namespace store
{

namespace detail
{

namespace
{

// LZSS parameters: window bounded by the 16-bit offset, match length
// 4..259 (the length byte stores matchLen - kMinMatch). A 4-byte
// minimum keeps the token (3 bytes + flag bit) strictly smaller than
// the literals it replaces.
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 259;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashBits = 15;

std::uint32_t
hash4(const unsigned char *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return (v * 2654435761u) >> (32 - kHashBits);
}

} // namespace

std::optional<std::string>
lzssCompress(const std::string &input)
{
    const std::size_t n = input.size();
    if (n < kMinMatch)
        return std::nullopt;
    const unsigned char *src =
        reinterpret_cast<const unsigned char *>(input.data());

    // Single-probe match finder: hash of the next 4 bytes -> most
    // recent position with that hash. One candidate per position is
    // plenty on the JSON-ish payloads the store holds.
    std::vector<std::uint32_t> head(std::size_t{1} << kHashBits,
                                    0xffffffffu);

    std::string out;
    out.reserve(n);
    std::size_t pos = 0;
    while (pos < n) {
        const std::size_t flagAt = out.size();
        out.push_back('\0');
        unsigned char flags = 0;
        for (int bit = 0; bit < 8 && pos < n; ++bit) {
            std::size_t matchLen = 0;
            std::size_t matchPos = 0;
            if (pos + kMinMatch <= n) {
                const std::uint32_t h = hash4(src + pos);
                const std::uint32_t cand = head[h];
                head[h] = static_cast<std::uint32_t>(pos);
                if (cand != 0xffffffffu &&
                    pos - cand <= kMaxOffset) {
                    const std::size_t limit =
                        std::min(n - pos, kMaxMatch);
                    std::size_t len = 0;
                    while (len < limit &&
                           src[cand + len] == src[pos + len]) {
                        ++len;
                    }
                    if (len >= kMinMatch) {
                        matchLen = len;
                        matchPos = cand;
                    }
                }
            }
            if (matchLen >= kMinMatch) {
                const std::size_t offset = pos - matchPos;
                flags |= static_cast<unsigned char>(1u << bit);
                out.push_back(static_cast<char>(offset & 0xff));
                out.push_back(
                    static_cast<char>((offset >> 8) & 0xff));
                out.push_back(
                    static_cast<char>(matchLen - kMinMatch));
                // Index the interior of the match too (cheaply, every
                // other position) so later repeats of its substrings
                // are still found.
                const std::size_t stop =
                    std::min(pos + matchLen, n - kMinMatch);
                for (std::size_t p = pos + 1; p < stop; p += 2)
                    head[hash4(src + p)] =
                        static_cast<std::uint32_t>(p);
                pos += matchLen;
            } else {
                out.push_back(static_cast<char>(src[pos]));
                ++pos;
            }
        }
        out[flagAt] = static_cast<char>(flags);
    }
    if (out.size() >= n)
        return std::nullopt;
    return out;
}

std::string
lzssDecompress(const std::string &input, std::size_t expectedSize)
{
    std::string out;
    out.reserve(expectedSize);
    std::size_t pos = 0;
    const std::size_t n = input.size();
    while (pos < n) {
        const unsigned char flags =
            static_cast<unsigned char>(input[pos++]);
        for (int bit = 0; bit < 8 && pos < n; ++bit) {
            if (flags & (1u << bit)) {
                if (pos + 3 > n) {
                    throw std::runtime_error(
                        "lzss stream truncated inside a match token");
                }
                const std::size_t offset =
                    static_cast<unsigned char>(input[pos]) |
                    (static_cast<std::size_t>(
                         static_cast<unsigned char>(input[pos + 1]))
                     << 8);
                const std::size_t len =
                    static_cast<unsigned char>(input[pos + 2]) +
                    kMinMatch;
                pos += 3;
                if (offset == 0 || offset > out.size()) {
                    throw std::runtime_error(
                        "lzss match offset outside the window");
                }
                if (out.size() + len > expectedSize) {
                    throw std::runtime_error(
                        "lzss output exceeds the recorded size");
                }
                // Overlapping copies are legal (offset < len repeats
                // the tail); copy byte-by-byte.
                const std::size_t from = out.size() - offset;
                for (std::size_t i = 0; i < len; ++i)
                    out.push_back(out[from + i]);
            } else {
                if (out.size() + 1 > expectedSize) {
                    throw std::runtime_error(
                        "lzss output exceeds the recorded size");
                }
                out.push_back(input[pos++]);
            }
        }
    }
    if (out.size() != expectedSize) {
        throw std::runtime_error(
            "lzss output is " + std::to_string(out.size()) +
            " bytes, envelope recorded " +
            std::to_string(expectedSize));
    }
    return out;
}

std::string
encodeEntryPayload(const StoreEntry &entry)
{
    std::ostringstream os;
    os << "{\"format\":" << static_cast<unsigned>(kStoreFormatVersion)
       << ",\"fingerprint\":\"" << jsonEscape(entry.fingerprint)
       << "\",\"attempts\":" << entry.attempts << ",\"result\":\""
       << jsonEscape(entry.resultJson) << "\",\"stats\":\""
       << jsonEscape(entry.statsJson) << "\",\"statsText\":\""
       << jsonEscape(entry.statsText) << "\"}";
    return os.str();
}

StoreEntry
decodeEntryPayload(const std::string &payload,
                   const std::string &expected)
{
    const minijson::Value doc = minijson::parse(payload);
    if (!doc.isObject())
        throw std::runtime_error("entry payload is not a JSON object");
    const auto str = [&doc](const char *key) -> const std::string & {
        if (!doc.has(key) || !doc.at(key).isString()) {
            throw std::runtime_error(
                std::string("entry payload missing string field '") +
                key + "'");
        }
        return doc.at(key).str();
    };
    if (!doc.has("format") || !doc.at("format").isNumber() ||
        doc.at("format").num() != kStoreFormatVersion) {
        throw std::runtime_error("entry payload format version "
                                 "mismatch");
    }
    StoreEntry entry;
    entry.fingerprint = str("fingerprint");
    if (entry.fingerprint != expected) {
        throw std::runtime_error(
            "entry records fingerprint " + entry.fingerprint +
            " but is filed under " + expected);
    }
    if (!doc.has("attempts") || !doc.at("attempts").isNumber() ||
        doc.at("attempts").num() < 1) {
        throw std::runtime_error("entry payload missing a positive "
                                 "'attempts'");
    }
    entry.attempts =
        static_cast<unsigned>(doc.at("attempts").num());
    entry.resultJson = str("result");
    entry.statsJson = str("stats");
    entry.statsText = str("statsText");
    return entry;
}

namespace
{

// Envelope layout (STORE.md): magic "VSVR", version byte, codec byte
// (0 = raw, 1 = lzss), two reserved zero bytes, then three 8-byte
// little-endian fields - uncompressed payload size, FNV-1a 64 of the
// uncompressed payload, stored byte count - and the stored bytes.
constexpr char kMagic[4] = {'V', 'S', 'V', 'R'};
constexpr std::size_t kEnvelopeHeaderBytes = 4 + 1 + 1 + 2 + 8 + 8 + 8;

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t
getU64(const std::string &in, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(in[at + i]))
             << (8 * i);
    }
    return v;
}

} // namespace

std::string
encodeEnvelope(const std::string &payload)
{
    const std::optional<std::string> compressed =
        lzssCompress(payload);
    const std::string &stored = compressed ? *compressed : payload;

    std::string out;
    out.reserve(kEnvelopeHeaderBytes + stored.size());
    out.append(kMagic, sizeof(kMagic));
    out.push_back(static_cast<char>(kStoreFormatVersion));
    out.push_back(compressed ? '\1' : '\0');
    out.push_back('\0');
    out.push_back('\0');
    putU64(out, payload.size());
    putU64(out, fnv1a64(payload));
    putU64(out, stored.size());
    out += stored;
    return out;
}

std::string
decodeEnvelope(const std::string &envelope)
{
    if (envelope.size() < kEnvelopeHeaderBytes)
        throw std::runtime_error("entry shorter than the envelope "
                                 "header");
    if (std::memcmp(envelope.data(), kMagic, sizeof(kMagic)) != 0)
        throw std::runtime_error("bad envelope magic");
    const std::uint8_t version =
        static_cast<unsigned char>(envelope[4]);
    if (version != kStoreFormatVersion) {
        throw std::runtime_error(
            "envelope format version " + std::to_string(version) +
            " != " + std::to_string(kStoreFormatVersion));
    }
    const std::uint8_t codec = static_cast<unsigned char>(envelope[5]);
    if (codec > 1)
        throw std::runtime_error("unknown envelope codec " +
                                 std::to_string(codec));
    const std::uint64_t payloadSize = getU64(envelope, 8);
    const std::uint64_t checksum = getU64(envelope, 16);
    const std::uint64_t storedSize = getU64(envelope, 24);
    if (envelope.size() != kEnvelopeHeaderBytes + storedSize) {
        throw std::runtime_error(
            "envelope records " + std::to_string(storedSize) +
            " stored bytes but the file carries " +
            std::to_string(envelope.size() - kEnvelopeHeaderBytes));
    }
    const std::string stored =
        envelope.substr(kEnvelopeHeaderBytes, storedSize);
    const std::string payload =
        codec == 1
            ? lzssDecompress(stored,
                             static_cast<std::size_t>(payloadSize))
            : stored;
    if (codec == 0 && payload.size() != payloadSize) {
        throw std::runtime_error("raw payload size does not match the "
                                 "envelope header");
    }
    if (fnv1a64(payload) != checksum)
        throw std::runtime_error("envelope checksum mismatch");
    return payload;
}

} // namespace detail

bool
ResultStore::validFingerprint(const std::string &fingerprint)
{
    if (fingerprint.size() != 16)
        return false;
    for (const char c : fingerprint) {
        const bool hex =
            (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        if (!hex)
            return false;
    }
    return true;
}

ResultStore::ResultStore(std::string dir, unsigned writerThreads)
    : dir_(std::move(dir))
{
    if (dir_.empty())
        fatal("result store needs a directory (--store-dir)");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        fatal("cannot create result store directory " + dir_ + ": " +
              ec.message());
    }
    const unsigned n = std::max(1u, writerThreads);
    writers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        writers_.emplace_back([this] { writerLoop(); });
}

ResultStore::~ResultStore()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (std::thread &t : writers_)
        t.join();
}

std::string
ResultStore::entryPath(const std::string &fingerprint) const
{
    return dir_ + "/" + fingerprint.substr(0, 2) + "/" + fingerprint +
           ".vsvres";
}

void
ResultStore::quarantine(const std::string &path, const std::string &why)
{
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    const std::string bad = path + ".bad";
    if (std::rename(path.c_str(), bad.c_str()) == 0) {
        warn("result store entry " + path + " is corrupt (" + why +
             "); quarantined as " + bad);
    } else {
        // Another process may have quarantined (or replaced) it
        // between our read and the rename; either way it is no
        // longer this lookup's problem.
        warn("result store entry " + path + " is corrupt (" + why +
             ") and could not be quarantined");
    }
}

std::optional<StoreEntry>
ResultStore::lookup(const std::string &fingerprint)
{
    if (!validFingerprint(fingerprint)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    const std::string path = entryPath(fingerprint);
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << is.rdbuf();

    try {
        const std::string payload =
            detail::decodeEnvelope(buffer.str());
        StoreEntry entry =
            detail::decodeEntryPayload(payload, fingerprint);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return entry;
    } catch (const std::exception &e) {
        quarantine(path, e.what());
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
}

void
ResultStore::insert(StoreEntry entry)
{
    if (!validFingerprint(entry.fingerprint)) {
        warn("result store refusing to insert malformed fingerprint '" +
             entry.fingerprint + "'");
        writeFailures_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Two writer threads must never persist one fingerprint side
        // by side: both would pass the on-disk probe and count an
        // insert. A queued or in-flight copy already holds these bytes.
        if (!pending_.insert(entry.fingerprint).second)
            return;
        queue_.push_back(std::move(entry));
    }
    workReady_.notify_one();
}

void
ResultStore::flush()
{
    std::unique_lock<std::mutex> lock(mutex_);
    queueIdle_.wait(lock, [this] {
        return queue_.empty() && inProgress_ == 0;
    });
}

void
ResultStore::writerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workReady_.wait(lock, [this] {
            return stopping_ || !queue_.empty();
        });
        if (queue_.empty()) {
            // stopping_ with an empty queue: every insert drained.
            return;
        }
        StoreEntry entry = std::move(queue_.front());
        queue_.pop_front();
        ++inProgress_;
        lock.unlock();
        persist(entry);
        lock.lock();
        pending_.erase(entry.fingerprint);
        --inProgress_;
        if (queue_.empty() && inProgress_ == 0)
            queueIdle_.notify_all();
    }
}

void
ResultStore::persist(const StoreEntry &entry)
{
    const std::string path = entryPath(entry.fingerprint);
    {
        // Content-addressed: an existing entry for this fingerprint
        // already holds these bytes; re-writing would only churn the
        // disk and race the rename for no change.
        std::ifstream probe(path, std::ios::binary);
        if (probe)
            return;
    }

    const std::string shard =
        dir_ + "/" + entry.fingerprint.substr(0, 2);
    std::error_code ec;
    std::filesystem::create_directories(shard, ec);
    if (ec) {
        warn("result store cannot create shard directory " + shard +
             ": " + ec.message());
        writeFailures_.fetch_add(1, std::memory_order_relaxed);
        return;
    }

    const std::string envelope =
        detail::encodeEnvelope(detail::encodeEntryPayload(entry));

    // Write-to-temp + rename, as WarmupSnapshotCache does: readers
    // never see a partial entry. The temp name carries the pid plus a
    // per-store sequence so concurrent writer threads (and concurrent
    // processes sharing the directory) never collide.
    static std::atomic<std::uint64_t> seq{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
        "." + std::to_string(seq.fetch_add(1));
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os ||
        !os.write(envelope.data(),
                  static_cast<std::streamsize>(envelope.size()))) {
        warn("result store cannot write " + tmp +
             "; dropping the insert");
        std::remove(tmp.c_str());
        writeFailures_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    os.close();
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("result store cannot move entry into place: " + path);
        std::remove(tmp.c_str());
        writeFailures_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    inserts_.fetch_add(1, std::memory_order_relaxed);
}

ResultStoreStats
ResultStore::stats() const
{
    ResultStoreStats out;
    out.enabled = true;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.inserts = inserts_.load(std::memory_order_relaxed);
    out.corrupt = corrupt_.load(std::memory_order_relaxed);
    out.writeFailures =
        writeFailures_.load(std::memory_order_relaxed);
    return out;
}

} // namespace store
} // namespace vsv
