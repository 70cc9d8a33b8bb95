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

#include "common/logging.hh"
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

TEST(SnapshotRestoreTest, CoreCountSkewIsAFatal)
{
    SimulationOptions options = makeOptions("mcf", false, 5000, 3000);
    options.cores = 2;
    Simulator warmed(options);
    warmed.warmup();
    std::ostringstream os;
    warmed.snapshotTo(os, "fp");

    // A 2-core snapshot restored into a 1-core simulator (and vice
    // versa) must refuse outright, not silently drop a core's state.
    SimulationOptions fewer = options;
    fewer.cores = 1;
    Simulator fresh(fewer);
    std::istringstream is(os.str());
    ScopedThrowingFatal guard;
    try {
        fresh.restoreFrom(is, "fp");
        FAIL() << "core-count skew restored";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("core count"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotRestoreTest, PerCoreSectionCorruptionIsAFatal)
{
    SimulationOptions options = makeOptions("mcf", false, 5000, 3000);
    options.cores = 2;
    Simulator warmed(options);
    warmed.warmup();
    std::ostringstream os;
    warmed.snapshotTo(os, "fp");
    std::string bytes = os.str();

    // Flip one bit in the trailing per-core region (core 1's sections
    // land after core 0's); the section checksums must catch it.
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
