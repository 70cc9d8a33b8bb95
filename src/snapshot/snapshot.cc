#include "snapshot.hh"

#include <bit>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "common/hash.hh"
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

void
appendRaw(std::string &out, const void *data, std::size_t n)
{
    out.append(static_cast<const char *>(data), n);
}

} // namespace

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
    const std::uint64_t checksum = fnv1a64(buffer);
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
    const std::uint64_t checksum = fnv1a64({});
    os.write(reinterpret_cast<const char *>(&checksum),
             sizeof(checksum));
    os.flush();
    if (!os)
        corrupt("write failed in trailer");
    finished = true;
}

void
SnapshotWriter::u8(std::uint8_t v)
{
    VSV_ASSERT(inSection, "snapshot value outside a section");
    appendRaw(buffer, &v, sizeof(v));
}

void
SnapshotWriter::u32(std::uint32_t v)
{
    VSV_ASSERT(inSection, "snapshot value outside a section");
    appendRaw(buffer, &v, sizeof(v));
}

void
SnapshotWriter::u64(std::uint64_t v)
{
    VSV_ASSERT(inSection, "snapshot value outside a section");
    appendRaw(buffer, &v, sizeof(v));
}

void
SnapshotWriter::i32(std::int32_t v)
{
    u32(static_cast<std::uint32_t>(v));
}

void
SnapshotWriter::i64(std::int64_t v)
{
    u64(static_cast<std::uint64_t>(v));
}

void
SnapshotWriter::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
SnapshotWriter::b(bool v)
{
    u8(v ? 1 : 0);
}

void
SnapshotWriter::str(std::string_view s)
{
    VSV_ASSERT(s.size() < maxStringLength, "snapshot string too long");
    u32(static_cast<std::uint32_t>(s.size()));
    VSV_ASSERT(inSection, "snapshot value outside a section");
    buffer.append(s.data(), s.size());
}

void
SnapshotWriter::scalar(const Scalar &s)
{
    f64(s.value());
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
    payload.resize(size);
    is.read(payload.data(), static_cast<std::streamsize>(size));
    std::uint64_t checksum = 0;
    is.read(reinterpret_cast<char *>(&checksum), sizeof(checksum));
    if (!is)
        corrupt("truncated section '" + tag + "'");
    if (checksum != fnv1a64(payload))
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
}

const char *
SnapshotReader::take(std::size_t n)
{
    VSV_ASSERT(inSection, "snapshot read outside a section");
    if (payload.size() - cursor < n) {
        corrupt("section '" + tag + "' exhausted (" +
                std::to_string(payload.size() - cursor) +
                " bytes left, " + std::to_string(n) + " needed)");
    }
    const char *p = payload.data() + cursor;
    cursor += n;
    return p;
}

std::uint8_t
SnapshotReader::u8()
{
    std::uint8_t v;
    std::memcpy(&v, take(sizeof(v)), sizeof(v));
    return v;
}

std::uint32_t
SnapshotReader::u32()
{
    std::uint32_t v;
    std::memcpy(&v, take(sizeof(v)), sizeof(v));
    return v;
}

std::uint64_t
SnapshotReader::u64()
{
    std::uint64_t v;
    std::memcpy(&v, take(sizeof(v)), sizeof(v));
    return v;
}

std::int32_t
SnapshotReader::i32()
{
    return static_cast<std::int32_t>(u32());
}

std::int64_t
SnapshotReader::i64()
{
    return static_cast<std::int64_t>(u64());
}

double
SnapshotReader::f64()
{
    return std::bit_cast<double>(u64());
}

bool
SnapshotReader::b()
{
    const std::uint8_t v = u8();
    if (v > 1)
        corrupt("bool out of range in section '" + tag + "'");
    return v != 0;
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
