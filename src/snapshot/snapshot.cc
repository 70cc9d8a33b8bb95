#include "snapshot.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "common/logging.hh"

namespace vsv
{

namespace
{

constexpr char snapshotMagic[4] = {'V', 'S', 'V', 'S'};
constexpr std::string_view endTag = "end";

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

SnapshotWriter::SnapshotWriter(std::ostream &os_,
                               std::string_view fingerprint)
    : os(os_)
{
    os.write(snapshotMagic, sizeof(snapshotMagic));
    const std::uint32_t version = snapshotFormatVersion;
    os.write(reinterpret_cast<const char *>(&version), sizeof(version));
    const std::uint32_t len =
        static_cast<std::uint32_t>(fingerprint.size());
    os.write(reinterpret_cast<const char *>(&len), sizeof(len));
    os.write(fingerprint.data(),
             static_cast<std::streamsize>(fingerprint.size()));
    if (!os)
        corrupt("write failed in header");
}

void
SnapshotWriter::begin(std::string_view tag_)
{
    VSV_ASSERT(!inSection && !finished, "snapshot section nesting");
    VSV_ASSERT(tag_ != endTag, "'end' is the reserved trailer tag");
    tag = tag_;
    buffer.clear();
    inSection = true;
}

void
SnapshotWriter::end()
{
    VSV_ASSERT(inSection, "snapshot end() without begin()");
    const std::uint32_t tag_len = static_cast<std::uint32_t>(tag.size());
    os.write(reinterpret_cast<const char *>(&tag_len), sizeof(tag_len));
    os.write(tag.data(), static_cast<std::streamsize>(tag.size()));
    const std::uint64_t size = buffer.size();
    os.write(reinterpret_cast<const char *>(&size), sizeof(size));
    os.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const std::uint64_t checksum = snapshotChecksum(buffer);
    os.write(reinterpret_cast<const char *>(&checksum),
             sizeof(checksum));
    if (!os)
        corrupt("write failed in section '" + tag + "'");
    inSection = false;
}

void
SnapshotWriter::finish()
{
    VSV_ASSERT(!inSection && !finished,
               "snapshot finish() inside a section");
    const std::uint32_t tag_len =
        static_cast<std::uint32_t>(endTag.size());
    os.write(reinterpret_cast<const char *>(&tag_len), sizeof(tag_len));
    os.write(endTag.data(), static_cast<std::streamsize>(endTag.size()));
    const std::uint64_t size = 0;
    os.write(reinterpret_cast<const char *>(&size), sizeof(size));
    const std::uint64_t checksum = snapshotChecksum({});
    os.write(reinterpret_cast<const char *>(&checksum),
             sizeof(checksum));
    os.flush();
    if (!os)
        corrupt("write failed in trailer");
    finished = true;
}

void
SnapshotWriter::str(std::string_view s)
{
    VSV_ASSERT(s.size() < maxStringLength, "snapshot string too long");
    u32(static_cast<std::uint32_t>(s.size()));
    put(s.data(), s.size());
}

SnapshotReader::SnapshotReader(std::istream &is_)
    : is(is_)
{
    char magic[4] = {};
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, snapshotMagic, sizeof(magic)) != 0)
        corrupt("not a VSV snapshot (bad magic)");
    std::uint32_t version = 0;
    is.read(reinterpret_cast<char *>(&version), sizeof(version));
    if (!is)
        corrupt("truncated header");
    if (version != snapshotFormatVersion) {
        corrupt("unsupported format version " + std::to_string(version) +
                " (expected " + std::to_string(snapshotFormatVersion) +
                ")");
    }
    std::uint32_t len = 0;
    is.read(reinterpret_cast<char *>(&len), sizeof(len));
    if (!is || len >= maxStringLength)
        corrupt("truncated or corrupt fingerprint");
    fingerprint_.resize(len);
    is.read(fingerprint_.data(), len);
    if (!is)
        corrupt("truncated fingerprint");
}

void
SnapshotReader::begin(std::string_view expected_tag)
{
    VSV_ASSERT(!inSection, "snapshot section nesting");
    std::uint32_t tag_len = 0;
    is.read(reinterpret_cast<char *>(&tag_len), sizeof(tag_len));
    if (!is || tag_len >= maxStringLength)
        corrupt("truncated stream (expected section '" +
                std::string(expected_tag) + "')");
    tag.resize(tag_len);
    is.read(tag.data(), tag_len);
    std::uint64_t size = 0;
    is.read(reinterpret_cast<char *>(&size), sizeof(size));
    if (!is)
        corrupt("truncated section header");
    if (tag != expected_tag) {
        corrupt("expected section '" + std::string(expected_tag) +
                "', found '" + tag + "'");
    }
    // The size comes from the file: grow the buffer only as bytes
    // actually arrive, so a size that lies is a SnapshotError rather
    // than a multi-gigabyte allocation.
    constexpr std::uint64_t chunk = 1u << 20;
    payload.clear();
    while (payload.size() < size) {
        const std::size_t at = payload.size();
        const std::size_t n =
            static_cast<std::size_t>(std::min(chunk, size - at));
        payload.resize(at + n);
        if (!is.read(payload.data() + at,
                     static_cast<std::streamsize>(n))) {
            corrupt("section '" + tag + "' records " +
                    std::to_string(size) +
                    " bytes but the stream ends first");
        }
    }
    std::uint64_t checksum = 0;
    is.read(reinterpret_cast<char *>(&checksum), sizeof(checksum));
    if (!is)
        corrupt("truncated section '" + tag + "'");
    if (checksum != snapshotChecksum(payload))
        corrupt("checksum mismatch in section '" + tag + "'");
    cursor = 0;
    inSection = true;
}

void
SnapshotReader::end()
{
    VSV_ASSERT(inSection, "snapshot end() without begin()");
    if (cursor != payload.size()) {
        corrupt("section '" + tag + "' has " +
                std::to_string(payload.size() - cursor) +
                " unread bytes (layout drift)");
    }
    inSection = false;
}

void
SnapshotReader::expectEnd()
{
    VSV_ASSERT(!inSection, "expectEnd() inside a section");
    std::uint32_t tag_len = 0;
    is.read(reinterpret_cast<char *>(&tag_len), sizeof(tag_len));
    if (!is || tag_len >= maxStringLength)
        corrupt("truncated stream (expected trailer)");
    tag.resize(tag_len);
    is.read(tag.data(), tag_len);
    std::uint64_t size = 0;
    is.read(reinterpret_cast<char *>(&size), sizeof(size));
    std::uint64_t checksum = 0;
    if (is)
        is.read(reinterpret_cast<char *>(&checksum), sizeof(checksum));
    if (!is)
        corrupt("truncated trailer");
    if (tag != endTag || size != 0)
        corrupt("expected trailer, found section '" + tag + "'");
    if (checksum != snapshotChecksum({}))
        corrupt("checksum mismatch in trailer");
}

void
SnapshotReader::takeFailed(std::size_t n) const
{
    VSV_ASSERT(inSection, "snapshot read outside a section");
    corrupt("section '" + tag + "' exhausted (" +
            std::to_string(payload.size() - cursor) + " bytes left, " +
            std::to_string(n) + " needed)");
}

void
SnapshotReader::badBool() const
{
    corrupt("bool out of range in section '" + tag + "'");
}

std::string
SnapshotReader::str()
{
    const std::uint32_t len = u32();
    if (len >= maxStringLength)
        corrupt("string too long in section '" + tag + "'");
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
        corrupt(std::string(what) + " mismatch in section '" + tag +
                "': snapshot has " + std::to_string(v) +
                ", simulator expects " + std::to_string(expected));
    }
}

void
SnapshotReader::expectU64(std::uint64_t expected, std::string_view what)
{
    const std::uint64_t v = u64();
    if (v != expected) {
        corrupt(std::string(what) + " mismatch in section '" + tag +
                "': snapshot has " + std::to_string(v) +
                ", simulator expects " + std::to_string(expected));
    }
}

} // namespace vsv
