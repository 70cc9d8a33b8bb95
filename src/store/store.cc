#include "store.hh"

#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "common/minijson.hh"
#include "stats/stats.hh"
#include "store/atomic_file.hh"

namespace vsv
{
namespace store
{

namespace detail
{

std::string
encodeEntryPayload(const StoreEntry &entry)
{
    std::ostringstream os;
    os << "{\"fingerprint\":\"" << jsonEscape(entry.fingerprint)
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

// Envelope layout (STORE.md): magic "VSVR", version byte, three zero
// padding bytes, then two 8-byte little-endian fields - payload size
// and FNV-1a 64 of the payload - and the payload itself.
constexpr char kMagic[4] = {'V', 'S', 'V', 'R'};
constexpr std::size_t kEnvelopeHeaderBytes = 4 + 1 + 3 + 8 + 8;

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
    std::string out;
    out.reserve(kEnvelopeHeaderBytes + payload.size());
    out.append(kMagic, sizeof(kMagic));
    out.push_back(static_cast<char>(kStoreFormatVersion));
    out.append(3, '\0');
    putU64(out, payload.size());
    putU64(out, fnv1a64(payload));
    out += payload;
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
    if (envelope[5] != '\0' || envelope[6] != '\0' ||
        envelope[7] != '\0')
        throw std::runtime_error("nonzero envelope padding");
    const std::uint64_t payloadSize = getU64(envelope, 8);
    const std::uint64_t checksum = getU64(envelope, 16);
    if (envelope.size() - kEnvelopeHeaderBytes != payloadSize) {
        throw std::runtime_error(
            "envelope records " + std::to_string(payloadSize) +
            " payload bytes but the file carries " +
            std::to_string(envelope.size() - kEnvelopeHeaderBytes));
    }
    std::string payload = envelope.substr(kEnvelopeHeaderBytes);
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

ResultStore::ResultStore(std::string dir)
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
}

std::string
ResultStore::entryPath(const std::string &fingerprint) const
{
    return dir_ + "/" + fingerprint.substr(0, 2) + "/" + fingerprint +
           ".vsvres";
}

std::optional<StoreEntry>
ResultStore::lookup(const std::string &fingerprint,
                    const std::function<void(const StoreEntry &)> &replay)
{
    if (!validFingerprint(fingerprint)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    const std::string path = entryPath(fingerprint);
    const std::optional<std::string> bytes = readFile(path);
    if (!bytes) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    try {
        StoreEntry entry = detail::decodeEntryPayload(
            detail::decodeEnvelope(*bytes), fingerprint);
        if (replay)
            replay(entry);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return entry;
    } catch (const std::exception &e) {
        // Without the quarantine a stale or corrupt entry would be a
        // permanent miss: insert()'s existence probe would never
        // replace it.
        corrupt_.fetch_add(1, std::memory_order_relaxed);
        quarantineFile(path, "result store entry", e.what());
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
}

void
ResultStore::insert(const StoreEntry &entry)
{
    if (!validFingerprint(entry.fingerprint)) {
        warn("result store refusing to insert malformed fingerprint '" +
             entry.fingerprint + "'");
        writeFailures_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    // Probe, write and rename as one step, so two sweep threads
    // finishing the same fingerprint cannot both pass the probe and
    // count an insert.
    std::lock_guard<std::mutex> lock(insertMutex_);
    const std::string path = entryPath(entry.fingerprint);
    // Content-addressed: an existing entry for this fingerprint
    // already holds these bytes.
    std::error_code ec;
    if (std::filesystem::exists(path, ec))
        return;

    const std::string shard =
        dir_ + "/" + entry.fingerprint.substr(0, 2);
    std::filesystem::create_directories(shard, ec);
    if (ec) {
        warn("result store cannot create shard directory " + shard +
             ": " + ec.message());
        writeFailures_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const std::string envelope =
        detail::encodeEnvelope(detail::encodeEntryPayload(entry));
    if (!writeFileAtomically(path, envelope)) {
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
