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
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "harness/experiment.hh"
#include "harness/simulator.hh"
#include "harness/sweep.hh"
#include "snapshot/snapshot.hh"
#include "stats/stats.hh"

namespace vsv
{
namespace
{

TEST(SnapshotFormatTest, PrimitivesRoundTrip)
{
    std::ostringstream os;
    SnapshotWriter writer(os, "fp-test");
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
    writer.finish();

    std::istringstream is(os.str());
    SnapshotReader reader(is);
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
    std::ostringstream os;
    SnapshotWriter writer(os, "");
    writer.begin("one");
    writer.u32(1);
    writer.end();
    writer.begin("two");
    writer.u32(2);
    writer.end();
    writer.finish();

    std::istringstream is(os.str());
    SnapshotReader reader(is);
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
    std::ostringstream os;
    SnapshotWriter writer(os, "fp");
    writer.begin("sec");
    writer.u64(0x1122334455667788ULL);
    writer.end();
    writer.finish();
    return os.str();
}

TEST(SnapshotFormatTest, BadMagicThrows)
{
    std::string bytes = validSnapshot();
    bytes[0] = 'X';
    std::istringstream is(bytes);
    try {
        SnapshotReader reader(is);
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
    std::istringstream is(bytes);
    try {
        SnapshotReader reader(is);
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
        std::istringstream is(bytes.substr(0, keep));
        EXPECT_THROW(
            {
                SnapshotReader reader(is);
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
        std::istringstream is(bytes);
        SnapshotReader reader(is);
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
    std::istringstream is(bytes);
    SnapshotReader reader(is);
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
    std::istringstream is(bytes);
    SnapshotReader reader(is);
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
    std::istringstream is(bytes);
    SnapshotReader reader(is);
    reader.begin("sec");
    reader.u32();  // only half of the u64
    EXPECT_THROW(reader.end(), SnapshotError);
}

TEST(SnapshotFormatTest, ReadingPastSectionEndThrows)
{
    const std::string bytes = validSnapshot();
    std::istringstream is(bytes);
    SnapshotReader reader(is);
    reader.begin("sec");
    reader.u64();
    EXPECT_THROW(reader.u8(), SnapshotError);
}

TEST(SnapshotFormatTest, ExpectU32NamesTheQuantity)
{
    std::ostringstream os;
    SnapshotWriter writer(os, "");
    writer.begin("geom");
    writer.u32(64);
    writer.end();
    writer.finish();

    std::istringstream is(os.str());
    SnapshotReader reader(is);
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
    std::istringstream is(bytes);
    try {
        SnapshotReader reader(is);
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
            std::ostringstream os;
            warmed.snapshotTo(os, fingerprint());
            return os.str();
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
        Simulator fresh(options());
        std::istringstream is(bytes);
        ScopedThrowingFatal guard;
        try {
            fresh.restoreFrom(is, fingerprint());
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "warmup snapshot unusable"),
                      std::string::npos)
                << e.what();
            return false;
        }
        return true;
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
    std::ostringstream os;
    SnapshotWriter writer(os, "fp");
    writer.begin("sim");
    writer.u32(skew.coreCount);
    writer.str(options.profile.name);
    writer.u64(options.warmupInstructions);
    writer.u64(0);
    writer.b(false);
    writer.b(false);
    writer.b(skew.traceFlag);
    writer.end();
    writer.finish();

    Simulator fresh(options);
    std::istringstream is(os.str());
    ScopedThrowingFatal guard;
    try {
        fresh.restoreFrom(is, "fp");
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
    std::ostringstream os;
    warmed.snapshotTo(os, "fp");
    std::string bytes = os.str();

    // Flip one bit in the trailing region, where the core's private
    // workload-stream section lands; the section checksums must catch
    // it.
    const std::size_t at = bytes.size() - 40;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x01);

    Simulator fresh(options);
    std::istringstream is(bytes);
    ScopedThrowingFatal guard;
    try {
        fresh.restoreFrom(is, "fp");
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
    std::istringstream garbage("this is not a snapshot");
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
    std::ostringstream os;
    warmed.snapshotTo(os, "fingerprint-a");

    Simulator fresh(options);
    std::istringstream is(os.str());
    try {
        ScopedThrowingFatal guard;
        fresh.restoreFrom(is, "fingerprint-b");
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
    std::ostringstream os;
    warmed.snapshotTo(os, "fp");

    // Same benchmark, different L2: the cache section's geometry
    // guards must refuse, not deliver wrong tags.
    SimulationOptions other = options;
    other.hierarchy.l2.sizeBytes /= 2;
    Simulator fresh(other);
    std::istringstream is(os.str());
    ScopedThrowingFatal guard;
    EXPECT_THROW(fresh.restoreFrom(is, "fp"), FatalError);
}

TEST(SnapshotRestoreTest, RestoredRunMatchesFreshRun)
{
    // The contract in one small case (the full Figure 4 grid lives in
    // integration/snapshot_equivalence_test): warmup -> snapshot ->
    // restore -> run must equal warmup -> run, scalar for scalar.
    SimulationOptions options = makeOptions("ammp", false, 5000, 3000);

    Simulator reference(options);
    reference.warmup();
    std::ostringstream snap;
    reference.snapshotTo(snap, warmupFingerprint(options));
    const SimulationResult ref_result = reference.run();

    Simulator restored(options);
    std::istringstream is(snap.str());
    restored.restoreFrom(is, warmupFingerprint(options));
    EXPECT_TRUE(restored.warmedUp());
    const SimulationResult result = restored.run();

    EXPECT_EQ(result.ticks, ref_result.ticks);
    EXPECT_EQ(result.instructions, ref_result.instructions);
    EXPECT_EQ(result.energyPj, ref_result.energyPj);
    EXPECT_EQ(reference.stats().scalarMap(),
              restored.stats().scalarMap());
}

} // namespace
} // namespace vsv
