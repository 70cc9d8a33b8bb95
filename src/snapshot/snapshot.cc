#include "snapshot.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <string>

#include "common/logging.hh"

namespace vsv
{

namespace
{

constexpr char snapshotMagic[4] = {'V', 'S', 'V', 'S'};
constexpr std::string_view endTag = "end";

/** Room a writer reserves up front. A paper configuration's snapshot
 *  is about 1.3 MB; pages the writer never reaches stay virtual. */
constexpr std::size_t writerReserve = 4u << 20;

/** Tags and fingerprints are short; anything longer is corruption. */
constexpr std::uint32_t maxStringLength = 1u << 20;

[[noreturn]] void
corrupt(const std::string &what)
{
    throw SnapshotError("snapshot: " + what);
}

} // namespace

std::uint64_t
snapshotChecksum(std::string_view bytes)
{
    // An odd golden-ratio multiplier; the rotation carries each
    // product's high bits into the next step's low ones, which a
    // multiply alone never does. The lanes start from FNV-1a's offset
    // basis and from the multiplier.
    constexpr std::uint64_t mult = 0x9e3779b97f4a7c15ULL;
    const auto step = [](std::uint64_t lane, std::uint64_t in) {
        return std::rotl((lane ^ in) * mult, 29);
    };
    std::uint64_t a = 0xcbf29ce484222325ULL;
    std::uint64_t b = mult;
    const char *p = bytes.data();
    const std::size_t words = bytes.size() / 8;
    std::size_t i = 0;
    for (; i + 2 <= words; i += 2) {
        std::uint64_t w0, w1;
        std::memcpy(&w0, p + 8 * i, 8);
        std::memcpy(&w1, p + 8 * i + 8, 8);
        a = step(a, w0);
        b = step(b, w1);
    }
    if (i < words) {
        std::uint64_t w;
        std::memcpy(&w, p + 8 * i, 8);
        a = step(a, w);
    }
    for (std::size_t j = 8 * words; j < bytes.size(); ++j)
        b = step(b, static_cast<unsigned char>(p[j]));
    return step(a ^ std::rotl(b, 32), bytes.size());
}

SnapshotWriter::SnapshotWriter(std::string_view fingerprint)
{
    bytes.reserve(writerReserve);
    bytes.append(snapshotMagic, sizeof(snapshotMagic));
    const std::uint32_t version = snapshotFormatVersion;
    bytes.append(&version, sizeof(version));
    const std::uint32_t len =
        static_cast<std::uint32_t>(fingerprint.size());
    bytes.append(&len, sizeof(len));
    bytes.append(fingerprint.data(), fingerprint.size());
}

void
SnapshotWriter::openFrame(std::string_view tag)
{
    const std::uint32_t tag_len = static_cast<std::uint32_t>(tag.size());
    bytes.append(&tag_len, sizeof(tag_len));
    bytes.append(tag.data(), tag.size());
    const std::uint64_t size = 0;  // patched by closeFrame()
    bytes.append(&size, sizeof(size));
    payloadAt = bytes.size();
}

void
SnapshotWriter::closeFrame()
{
    const std::uint64_t size = bytes.size() - payloadAt;
    std::memcpy(bytes.data() + payloadAt - sizeof(size), &size,
                sizeof(size));
    const std::uint64_t checksum =
        snapshotChecksum(bytes.view().substr(payloadAt));
    bytes.append(&checksum, sizeof(checksum));
}

void
SnapshotWriter::begin(std::string_view tag)
{
    VSV_ASSERT(!inSection && !finished, "snapshot section nesting");
    VSV_ASSERT(tag != endTag, "'end' is the reserved trailer tag");
    openFrame(tag);
    inSection = true;
}

void
SnapshotWriter::end()
{
    VSV_ASSERT(inSection, "snapshot end() without begin()");
    closeFrame();
    inSection = false;
}

SnapshotBytes
SnapshotWriter::finish()
{
    VSV_ASSERT(!inSection && !finished,
               "snapshot finish() inside a section");
    openFrame(endTag);
    closeFrame();
    finished = true;
    return std::move(bytes);
}

void
SnapshotWriter::str(std::string_view s)
{
    VSV_ASSERT(s.size() < maxStringLength, "snapshot string too long");
    u32(static_cast<std::uint32_t>(s.size()));
    put(s.data(), s.size());
}

template <typename T>
bool
SnapshotReader::readField(T &v)
{
    if (bytes.size() - at < sizeof(v))
        return false;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    at += sizeof(v);
    return true;
}

SnapshotReader::SnapshotReader(std::string_view bytes_)
    : bytes(bytes_)
{
    if (bytes.size() < sizeof(snapshotMagic) ||
        std::memcmp(bytes.data(), snapshotMagic, sizeof(snapshotMagic)) != 0)
        corrupt("not a VSV snapshot (bad magic)");
    at = sizeof(snapshotMagic);
    std::uint32_t version = 0;
    if (!readField(version))
        corrupt("truncated header");
    if (version != snapshotFormatVersion) {
        corrupt("unsupported format version " + std::to_string(version) +
                " (expected " + std::to_string(snapshotFormatVersion) +
                ")");
    }
    std::uint32_t len = 0;
    if (!readField(len) || len >= maxStringLength)
        corrupt("truncated or corrupt fingerprint");
    if (bytes.size() - at < len)
        corrupt("truncated fingerprint");
    fingerprint_ = bytes.substr(at, len);
    at += len;
}

void
SnapshotReader::nextFrame(std::string_view expected)
{
    const auto want = [expected] {
        return expected == endTag
                   ? std::string("trailer")
                   : "section '" + std::string(expected) + "'";
    };
    std::uint32_t tag_len = 0;
    if (!readField(tag_len) || tag_len >= maxStringLength)
        corrupt("truncated stream (expected " + want() + ")");
    if (bytes.size() - at < tag_len)
        corrupt("truncated header of " + want());
    tag = bytes.substr(at, tag_len);
    at += tag_len;
    std::uint64_t size = 0;
    if (!readField(size))
        corrupt("truncated header of " + want());
    if (tag != expected) {
        corrupt("expected " + want() + ", found section '" +
                std::string(tag) + "'");
    }
    // The size comes from the file: check it against what is left
    // before using it, so a size that lies is a SnapshotError rather
    // than a read past the bytes.
    if (size > bytes.size() - at) {
        corrupt("section '" + std::string(tag) + "' records " +
                std::to_string(size) + " bytes but the stream ends first");
    }
    payload = bytes.substr(at, static_cast<std::size_t>(size));
    at += payload.size();
    std::uint64_t checksum = 0;
    if (!readField(checksum))
        corrupt("truncated section '" + std::string(tag) + "'");
    if (checksum != snapshotChecksum(payload))
        corrupt("checksum mismatch in " + want());
    cursor = 0;
}

void
SnapshotReader::begin(std::string_view expected_tag)
{
    VSV_ASSERT(!inSection, "snapshot section nesting");
    nextFrame(expected_tag);
    inSection = true;
}

void
SnapshotReader::end()
{
    VSV_ASSERT(inSection, "snapshot end() without begin()");
    if (cursor != payload.size()) {
        corrupt("section '" + std::string(tag) + "' has " +
                std::to_string(payload.size() - cursor) +
                " unread bytes (layout drift)");
    }
    inSection = false;
}

void
SnapshotReader::expectEnd()
{
    VSV_ASSERT(!inSection, "expectEnd() inside a section");
    nextFrame(endTag);
    if (!payload.empty())
        corrupt("trailer records " + std::to_string(payload.size()) +
                " payload bytes");
}

void
SnapshotReader::takeFailed(std::size_t n) const
{
    VSV_ASSERT(inSection, "snapshot read outside a section");
    corrupt("section '" + std::string(tag) + "' exhausted (" +
            std::to_string(payload.size() - cursor) + " bytes left, " +
            std::to_string(n) + " needed)");
}

void
SnapshotReader::badBool() const
{
    corrupt("bool out of range in section '" + std::string(tag) + "'");
}

std::string
SnapshotReader::str()
{
    const std::uint32_t len = u32();
    if (len >= maxStringLength)
        corrupt("string too long in section '" + std::string(tag) + "'");
    const char *p = take(len);
    return std::string(p, len);
}

void
SnapshotReader::scalar(Scalar &s)
{
    const double v = f64();
    s.reset();
    s += v;
}

void
SnapshotReader::expectU32(std::uint32_t expected, std::string_view what)
{
    const std::uint32_t v = u32();
    if (v != expected) {
        corrupt(std::string(what) + " mismatch in section '" +
                std::string(tag) + "': snapshot has " + std::to_string(v) +
                ", simulator expects " + std::to_string(expected));
    }
}

void
SnapshotReader::expectU64(std::uint64_t expected, std::string_view what)
{
    const std::uint64_t v = u64();
    if (v != expected) {
        corrupt(std::string(what) + " mismatch in section '" +
                std::string(tag) + "': snapshot has " + std::to_string(v) +
                ", simulator expects " + std::to_string(expected));
    }
}

} // namespace vsv
