/**
 * @file
 * Snapshot format unit tests: primitive round-trips, framing
 * validation (magic, version, checksums, tags, truncation), and the
 * fatal()-with-a-clear-message contract of Simulator::restoreFrom.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "harness/experiment.hh"
#include "harness/simulator.hh"
#include "harness/sweep.hh"
#include "snapshot/bytes.hh"
#include "snapshot/snapshot.hh"
#include "stats/stats.hh"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace vsv
{
namespace
{

TEST(SnapshotFormatTest, PrimitivesRoundTrip)
{
    SnapshotWriter writer("fp-test");
    writer.begin("prims");
    writer.u8(0xab);
    writer.u32(0xdeadbeef);
    writer.u64(0x0123456789abcdefULL);
    writer.i32(-42);
    writer.i64(std::numeric_limits<std::int64_t>::min());
    writer.f64(0.1 + 0.2);  // not exactly representable: bit test
    writer.f64(-0.0);
    writer.b(true);
    writer.b(false);
    writer.str("hello|world");
    Scalar s;
    s += 3.25;
    s += 1e-300;
    writer.scalar(s);
    writer.end();
    const SnapshotBytes bytes = writer.finish();

    SnapshotReader reader(bytes.view());
    EXPECT_EQ(reader.fingerprint(), "fp-test");
    reader.begin("prims");
    EXPECT_EQ(reader.u8(), 0xab);
    EXPECT_EQ(reader.u32(), 0xdeadbeefu);
    EXPECT_EQ(reader.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(reader.i32(), -42);
    EXPECT_EQ(reader.i64(), std::numeric_limits<std::int64_t>::min());
    const double sum = reader.f64();
    EXPECT_EQ(sum, 0.1 + 0.2);  // bit-exact, not just close
    const double negzero = reader.f64();
    EXPECT_EQ(negzero, 0.0);
    EXPECT_TRUE(std::signbit(negzero));
    EXPECT_TRUE(reader.b());
    EXPECT_FALSE(reader.b());
    EXPECT_EQ(reader.str(), "hello|world");
    Scalar restored;
    restored += 999.0;  // must be overwritten, not accumulated
    reader.scalar(restored);
    EXPECT_EQ(restored.value(), s.value());
    reader.end();
    reader.expectEnd();
}

TEST(SnapshotFormatTest, MultipleSectionsReadInOrder)
{
    SnapshotWriter writer("");
    writer.begin("one");
    writer.u32(1);
    writer.end();
    writer.begin("two");
    writer.u32(2);
    writer.end();
    const SnapshotBytes bytes = writer.finish();

    SnapshotReader reader(bytes.view());
    reader.begin("one");
    EXPECT_EQ(reader.u32(), 1u);
    reader.end();
    reader.begin("two");
    EXPECT_EQ(reader.u32(), 2u);
    reader.end();
    reader.expectEnd();
}

/** One tiny valid snapshot, for corruption tests to mutilate. */
std::string
validSnapshot()
{
    SnapshotWriter writer("fp");
    writer.begin("sec");
    writer.u64(0x1122334455667788ULL);
    writer.end();
    return std::string(writer.finish().view());
}

TEST(SnapshotFormatTest, BadMagicThrows)
{
    std::string bytes = validSnapshot();
    bytes[0] = 'X';
    try {
        SnapshotReader reader(bytes);
        FAIL() << "bad magic accepted";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("bad magic"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotFormatTest, VersionMismatchThrows)
{
    std::string bytes = validSnapshot();
    bytes[4] = static_cast<char>(snapshotFormatVersion + 1);
    try {
        SnapshotReader reader(bytes);
        FAIL() << "future version accepted";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotFormatTest, TruncationThrows)
{
    const std::string bytes = validSnapshot();
    // Every proper prefix must fail loudly somewhere: header parse,
    // section open, payload read, or the missing trailer.
    for (const std::size_t keep :
         {std::size_t{3}, std::size_t{9}, bytes.size() / 2,
          bytes.size() - 1}) {
        const std::string prefix = bytes.substr(0, keep);
        EXPECT_THROW(
            {
                SnapshotReader reader(prefix);
                reader.begin("sec");
                reader.u64();
                reader.end();
                reader.expectEnd();
            },
            SnapshotError)
            << "prefix of " << keep << " bytes accepted";
    }
}

TEST(SnapshotFormatTest, SectionSizeThatLiesThrowsWithoutAllocating)
{
    // Header is magic(4) + version(4) + fp len(4) + "fp"(2); the
    // section size u64 follows tag len(4) + "sec"(3). A size far past
    // the stream's end must be rejected as corruption, not trusted as
    // an allocation size.
    const std::size_t size_at = 14 + 4 + 3;
    for (const std::uint64_t lie :
         {std::uint64_t{1} << 40, std::uint64_t{1} << 60}) {
        std::string bytes = validSnapshot();
        ASSERT_LT(size_at + sizeof(lie), bytes.size());
        std::memcpy(bytes.data() + size_at, &lie, sizeof(lie));
        SnapshotReader reader(bytes);
        EXPECT_THROW(reader.begin("sec"), SnapshotError)
            << "section size " << lie << " accepted";
    }
}

TEST(SnapshotFormatTest, PayloadCorruptionFailsChecksum)
{
    std::string bytes = validSnapshot();
    // Header is magic(4) + version(4) + fp len(4) + "fp"(2); the
    // section is tag len(4) + "sec"(3) + size(8), then the payload.
    const std::size_t payload_at = 14 + 4 + 3 + 8;
    ASSERT_LT(payload_at, bytes.size());
    bytes[payload_at] = static_cast<char>(bytes[payload_at] ^ 0x01);
    SnapshotReader reader(bytes);
    try {
        reader.begin("sec");
        FAIL() << "corrupt payload accepted";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotFormatTest, WrongSectionTagThrows)
{
    const std::string bytes = validSnapshot();
    SnapshotReader reader(bytes);
    try {
        reader.begin("other");
        FAIL() << "wrong tag accepted";
    } catch (const SnapshotError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("other"), std::string::npos) << what;
        EXPECT_NE(what.find("sec"), std::string::npos) << what;
    }
}

TEST(SnapshotFormatTest, UnreadBytesAtSectionEndThrow)
{
    const std::string bytes = validSnapshot();
    SnapshotReader reader(bytes);
    reader.begin("sec");
    reader.u32();  // only half of the u64
    EXPECT_THROW(reader.end(), SnapshotError);
}

TEST(SnapshotFormatTest, ReadingPastSectionEndThrows)
{
    const std::string bytes = validSnapshot();
    SnapshotReader reader(bytes);
    reader.begin("sec");
    reader.u64();
    EXPECT_THROW(reader.u8(), SnapshotError);
}

TEST(SnapshotFormatTest, ExpectU32NamesTheQuantity)
{
    SnapshotWriter writer("");
    writer.begin("geom");
    writer.u32(64);
    writer.end();
    const SnapshotBytes bytes = writer.finish();

    SnapshotReader reader(bytes.view());
    reader.begin("geom");
    try {
        reader.expectU32(128, "set count");
        FAIL() << "mismatched guard accepted";
    } catch (const SnapshotError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("set count"), std::string::npos) << what;
        EXPECT_NE(what.find("64"), std::string::npos) << what;
        EXPECT_NE(what.find("128"), std::string::npos) << what;
    }
}

TEST(SnapshotFormatTest, PreMulticoreSnapshotIsRejected)
{
    // v1 snapshots predate the multi-core layout (no core count, no
    // per-core sections); reading one as v2 would misalign every
    // section, so the reader must refuse at the header.
    ASSERT_GE(snapshotFormatVersion, 2u);
    std::string bytes = validSnapshot();
    bytes[4] = 1;  // version field, little-endian low byte
    try {
        SnapshotReader reader(bytes);
        FAIL() << "pre-multicore snapshot accepted";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotChecksumTest, EveryWordAndTailByteMatters)
{
    // Word and tail steps are bijections of their lane, so changing
    // any single word, or any single tail byte, changes the checksum.
    // Lengths 0-40 cover both lanes, odd word counts and every tail.
    Rng rng(3);
    for (std::size_t len = 0; len <= 40; ++len) {
        std::string bytes(len, '\0');
        for (char &c : bytes)
            c = static_cast<char>(rng.next());
        const std::uint64_t base = snapshotChecksum(bytes);
        for (std::size_t at = 0; at < len; ++at) {
            for (const unsigned char mask : {0x01, 0x80, 0xff}) {
                std::string changed = bytes;
                changed[at] = static_cast<char>(changed[at] ^ mask);
                EXPECT_NE(snapshotChecksum(changed), base)
                    << "length " << len << ", byte " << at;
            }
        }
        // A zero byte appended is a different payload too.
        EXPECT_NE(snapshotChecksum(bytes + '\0'), base) << len;
    }
    // Known answer: the checksum is part of the on-disk format.
    EXPECT_EQ(snapshotChecksum(""), 0xa2177fd99650f2a8ULL);
    EXPECT_EQ(snapshotChecksum("snapshot checksum v3"), 0x34c1551288d138fcULL);
}

/** Where one section's fields sit in a snapshot's bytes. */
struct SectionFrame
{
    std::string tag;
    std::size_t start;       ///< the tag-length field
    std::size_t sizeAt;      ///< the payload-size field
    std::size_t payloadAt;
    std::uint64_t size;
    std::size_t checksumAt;
    std::size_t end;         ///< one past the checksum
};

/** The sections of a well-formed snapshot, the "end" trailer last. */
std::vector<SectionFrame>
parseFrames(const std::string &bytes)
{
    std::uint32_t fp_len = 0;
    std::memcpy(&fp_len, bytes.data() + 8, sizeof(fp_len));
    std::vector<SectionFrame> frames;
    std::size_t at = 12 + fp_len;
    while (at < bytes.size()) {
        SectionFrame f;
        f.start = at;
        std::uint32_t tag_len = 0;
        std::memcpy(&tag_len, bytes.data() + at, sizeof(tag_len));
        f.tag = bytes.substr(at + 4, tag_len);
        f.sizeAt = at + 4 + tag_len;
        std::memcpy(&f.size, bytes.data() + f.sizeAt, sizeof(f.size));
        f.payloadAt = f.sizeAt + 8;
        f.checksumAt = f.payloadAt + f.size;
        f.end = f.checksumAt + 8;
        frames.push_back(f);
        at = f.end;
    }
    return frames;
}

/**
 * Mutations of one real snapshot: a single-core gzip warmup with
 * Time-Keeping, shrunk caches and predictor so each restore is cheap.
 * Every mutation must end in a rejected restore - never a crash, a
 * sanitizer report or an accepted snapshot.
 */
class SnapshotHostileInputTest : public testing::Test
{
  protected:
    static SimulationOptions
    options()
    {
        SimulationOptions o = makeOptions("gzip", true, 2000, 3000);
        o.hierarchy.l1i.sizeBytes = 4 * 1024;
        o.hierarchy.l1d.sizeBytes = 4 * 1024;
        o.hierarchy.l2.sizeBytes = 32 * 1024;
        o.branch.bimodalEntries = 512;
        o.branch.gshareEntries = 512;
        o.branch.chooserEntries = 512;
        o.branch.historyBits = 9;
        o.branch.btbEntries = 256;
        return o;
    }

    static const std::string &
    fingerprint()
    {
        static const std::string fp = warmupFingerprint(options());
        return fp;
    }

    static const std::string &
    snapshot()
    {
        static const std::string bytes = [] {
            Simulator warmed(options());
            warmed.warmup();
            return std::string(warmed.snapshot(fingerprint()).view());
        }();
        return bytes;
    }

    static const std::vector<SectionFrame> &
    frames()
    {
        static const std::vector<SectionFrame> parsed =
            parseFrames(snapshot());
        return parsed;
    }

    /** Restore `bytes` into a fresh simulator; true iff it was taken. */
    static bool
    restores(const std::string &bytes)
    {
        return rejection(bytes).empty();
    }

    /** Restore `bytes` into a fresh simulator: "" when it was taken,
     *  else the fatal's message. */
    static std::string
    rejection(const std::string &bytes)
    {
        Simulator fresh(options());
        ScopedThrowingFatal guard;
        try {
            fresh.restoreFrom(bytes, fingerprint());
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "warmup snapshot unusable"),
                      std::string::npos)
                << e.what();
            return e.what();
        }
        return "";
    }

    /** The snapshot with section `f`'s payload replaced, its size and
     *  checksum recomputed to match. */
    static std::string
    withPayload(const SectionFrame &f, const std::string &payload)
    {
        const std::string &bytes = snapshot();
        std::string framed = bytes.substr(0, f.sizeAt);
        const std::uint64_t size = payload.size();
        const std::uint64_t checksum = snapshotChecksum(payload);
        framed.append(reinterpret_cast<const char *>(&size), sizeof(size));
        framed += payload;
        framed.append(reinterpret_cast<const char *>(&checksum),
                      sizeof(checksum));
        framed += bytes.substr(f.end);
        return framed;
    }

    /** One tag-array line as a `cache:*` section stores it. */
    struct CacheLine
    {
        Addr tag;
        bool valid;
        bool dirty;
        std::uint64_t stamp;
    };

    /** Where a cache section's fields sit in its payload. */
    static constexpr std::size_t cacheStampAt = 12;  ///< after 3 u32s
    static constexpr std::size_t cacheLinesAt = 20;
    static constexpr std::size_t cacheLineBytes = 18;

    static const SectionFrame &
    frameOf(const std::string &tag)
    {
        for (const SectionFrame &f : frames()) {
            if (f.tag == tag)
                return f;
        }
        ADD_FAILURE() << "no section " << tag;
        return frames().front();
    }

    /** The lines of cache section `tag`, and its cache-wide stamp. */
    static std::vector<CacheLine>
    cacheLines(const std::string &tag, std::uint64_t *cache_stamp)
    {
        const SectionFrame &f = frameOf(tag);
        const char *payload = snapshot().data() + f.payloadAt;
        std::memcpy(cache_stamp, payload + cacheStampAt,
                    sizeof(*cache_stamp));
        std::vector<CacheLine> lines(
            (f.size - cacheLinesAt) / cacheLineBytes);
        for (std::size_t i = 0; i < lines.size(); ++i) {
            const char *at = payload + cacheLinesAt + i * cacheLineBytes;
            std::memcpy(&lines[i].tag, at, 8);
            lines[i].valid = at[8] != 0;
            lines[i].dirty = at[9] != 0;
            std::memcpy(&lines[i].stamp, at + 10, 8);
        }
        return lines;
    }

    /** The snapshot with line `index` of cache section `tag` set to
     *  `line`. */
    static std::string
    withCacheLine(const std::string &tag, std::size_t index,
                  const CacheLine &line)
    {
        const SectionFrame &f = frameOf(tag);
        std::string payload = snapshot().substr(f.payloadAt, f.size);
        char *at = payload.data() + cacheLinesAt + index * cacheLineBytes;
        std::memcpy(at, &line.tag, 8);
        at[8] = line.valid ? 1 : 0;
        at[9] = line.dirty ? 1 : 0;
        std::memcpy(at + 10, &line.stamp, 8);
        return withPayload(f, payload);
    }

    /** The three tag arrays' sections. */
    static std::vector<std::string>
    cacheSections()
    {
        return {"cache:l1i", "cache:l1d", "cache:l2"};
    }

    /** Index of the first valid line of `lines`. */
    static std::size_t
    firstValid(const std::vector<CacheLine> &lines)
    {
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (lines[i].valid)
                return i;
        }
        ADD_FAILURE() << "no valid line";
        return 0;
    }

    /** Expect `bytes` rejected with a message naming `rule`. */
    static void
    expectRejected(const std::string &bytes, const std::string &rule)
    {
        const std::string error = rejection(bytes);
        EXPECT_NE(error.find(rule), std::string::npos)
            << "expected a rejection naming '" << rule << "', got '"
            << error << "'";
    }

    static std::string
    withSize(const SectionFrame &f, std::uint64_t size)
    {
        std::string bytes = snapshot();
        std::memcpy(bytes.data() + f.sizeAt, &size, sizeof(size));
        return bytes;
    }
};

TEST_F(SnapshotHostileInputTest, TheUnmutatedSnapshotRestores)
{
    ASSERT_TRUE(restores(snapshot()));
    // Header, then sim, power, the hierarchy's sections, predictor,
    // Time-Keeping, workload, ..., trailer.
    ASSERT_GE(frames().size(), 8u);
    EXPECT_EQ(frames().front().tag, "sim");
    EXPECT_EQ(frames().back().tag, "end");
    EXPECT_EQ(frames().back().end, snapshot().size());
}

TEST_F(SnapshotHostileInputTest, EveryFramingByteFlipIsRejected)
{
    std::vector<std::size_t> offsets;
    for (std::size_t at = 0; at < frames().front().start; ++at)
        offsets.push_back(at);  // magic, version, fingerprint
    for (const SectionFrame &f : frames()) {
        for (std::size_t at = f.start; at < f.payloadAt; ++at)
            offsets.push_back(at);  // tag length, tag, size
        for (std::size_t at = f.checksumAt; at < f.end; ++at)
            offsets.push_back(at);
    }
    for (const std::size_t at : offsets) {
        for (const unsigned char mask : {0x01, 0x80}) {
            std::string bytes = snapshot();
            bytes[at] = static_cast<char>(bytes[at] ^ mask);
            EXPECT_FALSE(restores(bytes))
                << "flip " << int(mask) << " at framing byte " << at;
        }
    }
}

TEST_F(SnapshotHostileInputTest, StridedPayloadFlipsAreRejected)
{
    for (const SectionFrame &f : frames()) {
        // Up to 16 offsets per section, first and last byte included.
        const std::uint64_t stride = std::max<std::uint64_t>(1, f.size / 15);
        for (std::uint64_t off = 0; off < f.size; off += stride) {
            for (const std::uint64_t at :
                 {f.payloadAt + off, f.payloadAt + f.size - 1 - off}) {
                std::string bytes = snapshot();
                bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
                EXPECT_FALSE(restores(bytes))
                    << "section '" << f.tag << "' payload byte " << at;
            }
        }
    }
}

TEST_F(SnapshotHostileInputTest, TruncationAtEverySectionBoundaryIsRejected)
{
    std::vector<std::size_t> boundaries;
    for (const SectionFrame &f : frames())
        boundaries.push_back(f.start);
    boundaries.push_back(snapshot().size());
    for (const std::size_t boundary : boundaries) {
        for (const std::size_t keep :
             {boundary - 1, boundary, boundary + 1}) {
            if (keep >= snapshot().size())
                continue;  // past the end: not a truncation
            EXPECT_FALSE(restores(snapshot().substr(0, keep)))
                << "prefix of " << keep << " bytes";
        }
    }
}

TEST_F(SnapshotHostileInputTest, SectionSizesThatLieAreRejected)
{
    for (const SectionFrame &f : frames()) {
        SCOPED_TRACE("section '" + f.tag + "'");
        // The recorded size alone changes: the payload and checksum
        // no longer line up with it.
        for (const std::uint64_t lie :
             {f.size + 1, f.size + 8, std::uint64_t{1} << 40,
              ~std::uint64_t{0}}) {
            EXPECT_FALSE(restores(withSize(f, lie))) << "size " << lie;
        }
        if (f.size > 0) {
            EXPECT_FALSE(restores(withSize(f, f.size - 1)));
        }

        // A consistent lie: one byte dropped from or added to the
        // payload, with size and checksum recomputed to match. The
        // framing is valid, so the section's reader must notice.
        const std::string &bytes = snapshot();
        const std::string payload = bytes.substr(f.payloadAt, f.size);
        for (const std::string &changed :
             {payload.substr(0, payload.empty() ? 0 : payload.size() - 1),
              payload + '\0'}) {
            if (changed == payload)
                continue;
            std::string framed = bytes.substr(0, f.sizeAt);
            const std::uint64_t size = changed.size();
            const std::uint64_t checksum = snapshotChecksum(changed);
            framed.append(reinterpret_cast<const char *>(&size),
                          sizeof(size));
            framed += changed;
            framed.append(reinterpret_cast<const char *>(&checksum),
                          sizeof(checksum));
            framed += bytes.substr(f.end);
            EXPECT_FALSE(restores(framed))
                << "payload re-framed at " << changed.size() << " bytes";
        }
    }
}

TEST_F(SnapshotHostileInputTest, TagArraysAreWellFormedInTheGenuineSnapshot)
{
    // The positive control for the tag-array cases below: a line made
    // invalid the way invalidate() leaves one still restores.
    for (const std::string &tag : cacheSections()) {
        SCOPED_TRACE(tag);
        std::uint64_t stamp = 0;
        const std::vector<CacheLine> lines = cacheLines(tag, &stamp);
        ASSERT_GT(lines.size(), 0u);
        const std::size_t valid = firstValid(lines);
        EXPECT_TRUE(restores(withCacheLine(
            tag, valid, CacheLine{invalidAddr, false, false, 0})));
    }
}

TEST_F(SnapshotHostileInputTest, TagArrayValidFlagMustAgreeWithTag)
{
    for (const std::string &tag : cacheSections()) {
        SCOPED_TRACE(tag);
        std::uint64_t stamp = 0;
        const std::vector<CacheLine> lines = cacheLines(tag, &stamp);
        const std::size_t valid = firstValid(lines);
        CacheLine cleared = lines[valid];
        cleared.valid = false;
        expectRejected(withCacheLine(tag, valid, cleared),
                       "valid flag that disagrees with its tag");
        expectRejected(withCacheLine(
                           tag, valid, CacheLine{invalidAddr, true, false, 1}),
                       "valid flag that disagrees with its tag");
    }
}

TEST_F(SnapshotHostileInputTest, TagArrayInvalidLineMustBeCleanAndUnstamped)
{
    for (const std::string &tag : cacheSections()) {
        SCOPED_TRACE(tag);
        std::uint64_t stamp = 0;
        const std::size_t valid = firstValid(cacheLines(tag, &stamp));
        expectRejected(withCacheLine(
                           tag, valid, CacheLine{invalidAddr, false, true, 0}),
                       "invalid but dirty or stamped");
        expectRejected(withCacheLine(
                           tag, valid, CacheLine{invalidAddr, false, false, 1}),
                       "invalid but dirty or stamped");
    }
}

TEST_F(SnapshotHostileInputTest, TagArrayStampMustLieWithinTheCacheStamp)
{
    for (const std::string &tag : cacheSections()) {
        SCOPED_TRACE(tag);
        std::uint64_t stamp = 0;
        const std::vector<CacheLine> lines = cacheLines(tag, &stamp);
        const std::size_t valid = firstValid(lines);
        for (const std::uint64_t bad : {std::uint64_t{0}, stamp + 1,
                                        ~std::uint64_t{0}}) {
            CacheLine line = lines[valid];
            line.stamp = bad;
            expectRejected(withCacheLine(tag, valid, line),
                           "LRU stamp outside [1, cache stamp]");
        }
        // The edge itself is fine.
        CacheLine line = lines[valid];
        line.stamp = stamp;
        EXPECT_TRUE(restores(withCacheLine(tag, valid, line)));
    }
}

TEST_F(SnapshotHostileInputTest, TagArrayTagMustMapToItsSet)
{
    for (const std::string &tag : cacheSections()) {
        SCOPED_TRACE(tag);
        std::uint64_t stamp = 0;
        const std::vector<CacheLine> lines = cacheLines(tag, &stamp);
        const std::size_t valid = firstValid(lines);
        // The low tag bit is the set index's lowest; the top bit is
        // one no shifted address has.
        for (const Addr flip : {Addr{1}, Addr{1} << 63}) {
            CacheLine line = lines[valid];
            line.tag ^= flip;
            expectRejected(withCacheLine(tag, valid, line),
                           "holds a tag of another set");
        }
    }
}

TEST_F(SnapshotHostileInputTest, TagArrayTagMustNotRepeatInASet)
{
    const std::vector<std::pair<std::string, std::size_t>> arrays = {
        {"cache:l1i", 2}, {"cache:l1d", 2}, {"cache:l2", 8}};
    for (const auto &[tag, assoc] : arrays) {
        SCOPED_TRACE(tag);
        std::uint64_t stamp = 0;
        const std::vector<CacheLine> lines = cacheLines(tag, &stamp);
        // Copy a valid way's tag onto another way of its set.
        std::size_t from = 0;
        while (from < lines.size() && !lines[from].valid)
            ++from;
        ASSERT_LT(from, lines.size());
        const std::size_t set_first = from - from % assoc;
        const std::size_t to =
            from == set_first ? set_first + 1 : set_first;
        CacheLine line = lines[from];
        line.stamp = lines[to].valid ? lines[to].stamp : 1;
        expectRejected(withCacheLine(tag, to, line),
                       "repeats a tag of its set");
    }
}

TEST_F(SnapshotHostileInputTest, PowerAccessCountsMustBeWholeAndMatchTheFlag)
{
    // The power section opens with the structure count (u32), the
    // pipeline VDD (f64), the latch-path and activity flags (u8 each),
    // then one f64 access count per structure. Warmup charges
    // Time-Keeping accesses without closing a tick, so the activity
    // flag is set and some count is nonzero.
    const SectionFrame &f = frameOf("power");
    const std::string payload = snapshot().substr(f.payloadAt, f.size);
    constexpr std::size_t flagAt = 4 + 8 + 1;
    constexpr std::size_t countsAt = flagAt + 1;
    ASSERT_EQ(payload[flagAt], 1);
    for (const double bad : {0.5, -1.0, 0x1p53, std::nan("")}) {
        std::string changed = payload;
        std::memcpy(changed.data() + countsAt, &bad, sizeof(bad));
        expectRejected(withPayload(f, changed), "whole number below 2^53");
    }
    std::string unflagged = payload;
    unflagged[flagAt] = 0;
    expectRejected(withPayload(f, unflagged),
                   "activity flag disagrees with its counts");
}

/** One retired word of a format-3 `sim` section, set to a bad value. */
struct SimSectionSkew
{
    const char *name;
    std::uint32_t coreCount;
    bool traceFlag;
    const char *error;  ///< what the rejection must name
};

void
PrintTo(const SimSectionSkew &skew, std::ostream *os)
{
    *os << skew.name;
}

class SimSectionSkewTest : public testing::TestWithParam<SimSectionSkew>
{
};

TEST_P(SimSectionSkewTest, IsAFatal)
{
    // Format 3 keeps two retired words in the sim section: the core
    // count, always 1, and the trace-replay flag, always false. A file
    // with any other value holds state this simulator cannot
    // represent, so it must refuse outright.
    const SimSectionSkew &skew = GetParam();
    const SimulationOptions options = makeOptions("mcf", false, 5000, 3000);
    SnapshotWriter writer("fp");
    writer.begin("sim");
    writer.u32(skew.coreCount);
    writer.str(options.profile.name);
    writer.u64(options.warmupInstructions);
    writer.u64(0);
    writer.b(false);
    writer.b(false);
    writer.b(skew.traceFlag);
    writer.end();
    const SnapshotBytes bytes = writer.finish();

    Simulator fresh(options);
    ScopedThrowingFatal guard;
    try {
        fresh.restoreFrom(bytes.view(), "fp");
        FAIL() << skew.name << " skew restored";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(skew.error),
                  std::string::npos)
            << e.what();
    }
}

INSTANTIATE_TEST_SUITE_P(
    SnapshotRestoreTest, SimSectionSkewTest,
    testing::Values(SimSectionSkew{"core_count", 2, false, "core count"},
                    SimSectionSkew{"trace_flag", 1, true, "wiring"}),
    [](const testing::TestParamInfo<SimSectionSkew> &info) {
        return std::string(info.param.name);
    });

TEST(SnapshotRestoreTest, PerCoreSectionCorruptionIsAFatal)
{
    SimulationOptions options = makeOptions("mcf", false, 5000, 3000);
    Simulator warmed(options);
    warmed.warmup();
    std::string bytes(warmed.snapshot("fp").view());

    // Flip one bit in the trailing region, where the core's private
    // workload-stream section lands; the section checksums must catch
    // it.
    const std::size_t at = bytes.size() - 40;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x01);

    Simulator fresh(options);
    ScopedThrowingFatal guard;
    try {
        fresh.restoreFrom(bytes, "fp");
        FAIL() << "corrupt per-core section restored";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("warmup snapshot unusable"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotRestoreTest, GarbageStreamIsAFatalWithClearMessage)
{
    SimulationOptions options = makeOptions("gzip", false, 2000, 1000);
    Simulator sim(options);
    const std::string garbage = "this is not a snapshot";
    try {
        ScopedThrowingFatal guard;
        sim.restoreFrom(garbage);
        FAIL() << "garbage restored";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("warmup snapshot unusable"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotRestoreTest, FingerprintMismatchIsAFatal)
{
    SimulationOptions options = makeOptions("gzip", false, 2000, 1000);
    Simulator warmed(options);
    warmed.warmup();
    const SnapshotBytes bytes = warmed.snapshot("fingerprint-a");

    Simulator fresh(options);
    try {
        ScopedThrowingFatal guard;
        fresh.restoreFrom(bytes.view(), "fingerprint-b");
        FAIL() << "mismatched fingerprint restored";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotRestoreTest, GeometryMismatchIsAFatal)
{
    SimulationOptions options = makeOptions("gzip", false, 2000, 1000);
    Simulator warmed(options);
    warmed.warmup();
    const SnapshotBytes bytes = warmed.snapshot("fp");

    // Same benchmark, different L2: the cache section's geometry
    // guards must refuse, not deliver wrong tags.
    SimulationOptions other = options;
    other.hierarchy.l2.sizeBytes /= 2;
    Simulator fresh(other);
    ScopedThrowingFatal guard;
    EXPECT_THROW(fresh.restoreFrom(bytes.view(), "fp"), FatalError);
}

TEST(SnapshotRestoreTest, RestoredRunMatchesFreshRun)
{
    // The contract in one small case (the full Figure 4 grid lives in
    // integration/snapshot_equivalence_test): warmup -> snapshot ->
    // restore -> run must equal warmup -> run, scalar for scalar.
    SimulationOptions options = makeOptions("ammp", false, 5000, 3000);

    Simulator reference(options);
    reference.warmup();
    const SnapshotBytes snap =
        reference.snapshot(warmupFingerprint(options));
    const SimulationResult ref_result = reference.run();

    Simulator restored(options);
    restored.restoreFrom(snap.view(), warmupFingerprint(options));
    EXPECT_TRUE(restored.warmedUp());
    const SimulationResult result = restored.run();

    EXPECT_EQ(result.ticks, ref_result.ticks);
    EXPECT_EQ(result.instructions, ref_result.instructions);
    EXPECT_EQ(result.energyPj, ref_result.energyPj);
    EXPECT_EQ(reference.stats().scalarMap(),
              restored.stats().scalarMap());
}

TEST(SnapshotBytesTest, AppendsGrowPastTheMapThresholdIntact)
{
    // From an empty buffer through malloc'd sizes into mappings: every
    // byte written survives each reallocation.
    SnapshotBytes bytes;
    std::string expected;
    for (std::uint64_t i = 0; i < 3 * SnapshotBytes::mapThreshold / 8;
         ++i) {
        const std::uint64_t word = i * 0x9e3779b97f4a7c15ULL;
        bytes.append(&word, sizeof(word));
        expected.append(reinterpret_cast<const char *>(&word),
                        sizeof(word));
    }
    EXPECT_EQ(bytes.view(), expected);

    // Moving hands over the buffer itself.
    const char *data = bytes.data();
    SnapshotBytes moved = std::move(bytes);
    EXPECT_EQ(moved.data(), data);
    EXPECT_EQ(moved.size(), 3 * SnapshotBytes::mapThreshold);
    EXPECT_EQ(bytes.size(), 0u);  // a moved-from buffer is empty
    SnapshotBytes small;
    small.append("abc", 3);
    moved = std::move(small);
    EXPECT_EQ(moved.view(), "abc");
}

#if defined(__GLIBC__)
#if __GLIBC_PREREQ(2, 33)
TEST(SnapshotBytesTest, LargeBuffersLiveOutsideTheMallocHeap)
{
    // Freeing a malloc'd block this large raises glibc's mmap
    // threshold past it, after which malloc carves blocks of the size
    // from its arenas, which never shrink back. Snapshot-sized buffers
    // must not depend on that heuristic: they are mappings of their
    // own, invisible to the heap's counters.
    constexpr std::size_t size = 1u << 20;
    {
        // Hashing the primer keeps its allocation from being elided.
        std::string primer(size, 'x');
        ASSERT_EQ(fnv1a64(primer), fnv1a64(std::string(size, 'x')));
    }
    const struct mallinfo2 before = mallinfo2();
    {
        SnapshotBytes bytes;
        bytes.resize(size);
        std::memset(bytes.data(), 0x5a, bytes.size());
        const struct mallinfo2 live = mallinfo2();
        EXPECT_EQ(live.arena, before.arena);
        EXPECT_EQ(live.uordblks, before.uordblks);
        EXPECT_EQ(bytes.view().find_first_not_of('\x5a'),
                  std::string_view::npos);
    }
    const struct mallinfo2 after = mallinfo2();
    EXPECT_EQ(after.arena, before.arena);
    EXPECT_EQ(after.uordblks, before.uordblks);
}
#endif
#endif

/** A run's options warmed up briefly and encoded, as a sweep would. */
std::string
encodedSnapshot(const std::string &benchmark, bool timekeeping,
                std::uint64_t run_seed, std::uint64_t warmup)
{
    SimulationOptions options = makeOptions(benchmark, timekeeping,
                                            5000, warmup);
    applyRunSeed(options, run_seed);
    Simulator warmed(options);
    warmed.warmup();
    return std::string(warmed.snapshot(warmupFingerprint(options)).view());
}

/** The cold-window length and the pending-prefetch count that an
 *  encoded simulator snapshot's "workload" section records (see
 *  WorkloadGenerator::snapshot for the layout). */
std::pair<std::uint64_t, std::uint64_t>
workloadQueueLengths(std::string_view bytes)
{
    // The section frame: tag length, tag, payload size.
    const std::string_view tag("\x08\0\0\0workload", 12);
    const std::size_t frame = bytes.rfind(tag);
    if (frame == std::string_view::npos)
        return {0, 0};
    std::size_t at = frame + tag.size() + 8;
    const auto take = [&](std::size_t n) {
        std::uint64_t v = 0;
        std::memcpy(&v, bytes.data() + at, n);
        at += n;
        return v;
    };
    at += take(4);              // profile name
    at += 8 * (1 + 4 + 4 + 4);  // seed, two RNGs, counters
    const std::uint64_t window = take(8);
    at += window * (8 + 4) + 4;  // window refs, coldBurstRemaining
    return {window, take(8)};
}

TEST(SnapshotBytesPinTest, EncodedBytesAreUnchanged)
{
    // Every --snapshot-dir on disk holds these bytes; a writer rewrite
    // must reproduce them exactly. Full-size caches, so each snapshot
    // is the ~1 MB a paper sweep shares.
    struct Pin
    {
        const char *benchmark;
        bool timekeeping;
        std::uint64_t runSeed;
        std::uint64_t warmup;
        std::size_t size;
        std::uint64_t digest;
        /** The generator holds a software prefetch it has not yet
         *  emitted when the snapshot is taken. */
        bool prefetchQueued;
    };
    const Pin pins[] = {
        {"mcf", false, 0, 3000, 1280151, 0x903fb8923a35919fULL, false},
        {"mcf", false, 1, 3000, 1280151, 0x068b8d0e85143d87ULL, false},
        {"ammp", true, 0, 3000, 945363, 0xfaae8127c104f5b4ULL, false},
        {"ammp", true, 1, 3000, 945363, 0x1cc14d7c4b74ab72ULL, false},
        // art: jittered Scan with software prefetch and cold stores.
        // Each warmup stops 13 ops short of a batch whose last op
        // queued a prefetch, so the snapshot holds a cold window, a
        // pending prefetch and an undelivered batch tail.
        {"art", true, 0, 22451, 945540, 0x30082d2de53dcf31ULL, true},
        {"art", true, 1, 11379, 945524, 0x4a338e35dedf5b64ULL, true},
        // vpr: Random, no software prefetch, no Time-Keeping.
        {"vpr", false, 0, 3000, 886899, 0x7b77e22d9194b5e8ULL, false},
        {"vpr", false, 1, 3000, 886899, 0x2a22b35ece6df9e5ULL, false},
    };
    for (const Pin &pin : pins) {
        const std::string bytes = encodedSnapshot(
            pin.benchmark, pin.timekeeping, pin.runSeed, pin.warmup);
        EXPECT_EQ(bytes.size(), pin.size)
            << pin.benchmark << " seed " << pin.runSeed;
        EXPECT_EQ(fnv1a64(bytes), pin.digest)
            << pin.benchmark << " seed " << pin.runSeed << std::hex
            << " digest 0x" << fnv1a64(bytes);
        const auto [window, prefetches] = workloadQueueLengths(bytes);
        EXPECT_GT(window, 0u) << pin.benchmark << " seed " << pin.runSeed;
        if (pin.prefetchQueued) {
            EXPECT_GT(prefetches, 0u)
                << pin.benchmark << " seed " << pin.runSeed;
        }
    }
}

} // namespace
} // namespace vsv
