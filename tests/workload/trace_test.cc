/**
 * @file
 * Tests of trace recording and replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "stats/stats.hh"
#include "workload/trace.hh"
#include "workload/workload.hh"

namespace vsv
{
namespace
{

/** Temp-file helper that cleans up after itself. */
class TempTrace
{
  public:
    TempTrace()
    {
        char name[] = "/tmp/vsv_trace_XXXXXX";
        const int fd = mkstemp(name);
        EXPECT_GE(fd, 0);
        ::close(fd);
        path_ = name;
    }
    ~TempTrace() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

MicroOp
sampleOp(int i)
{
    MicroOp op;
    op.cls = i % 2 == 0 ? OpClass::Load : OpClass::FpMult;
    op.depDist1 = static_cast<std::uint32_t>(i);
    op.depDist2 = static_cast<std::uint32_t>(2 * i);
    op.pc = 0x400000 + i * 4;
    op.addr = 0x10000000ULL + i * 64;
    op.target = 0x500000 + i;
    op.taken = i % 3 == 0;
    op.brKind = BranchKind::NotBranch;
    return op;
}

TEST(TraceTest, RoundTripPreservesEveryField)
{
    TempTrace tmp;
    {
        TraceWriter writer(tmp.path());
        for (int i = 0; i < 100; ++i)
            writer.append(sampleOp(i));
    }

    TraceReader reader(tmp.path(), /*loop=*/false);
    EXPECT_EQ(reader.records(), 100u);
    for (int i = 0; i < 100; ++i) {
        const MicroOp expect = sampleOp(i);
        const MicroOp got = reader.next();
        EXPECT_EQ(got.cls, expect.cls);
        EXPECT_EQ(got.depDist1, expect.depDist1);
        EXPECT_EQ(got.depDist2, expect.depDist2);
        EXPECT_EQ(got.pc, expect.pc);
        EXPECT_EQ(got.addr, expect.addr);
        EXPECT_EQ(got.target, expect.target);
        EXPECT_EQ(got.taken, expect.taken);
        EXPECT_EQ(got.brKind, expect.brKind);
    }
}

TEST(TraceTest, LoopingWrapsToTheStart)
{
    TempTrace tmp;
    {
        TraceWriter writer(tmp.path());
        for (int i = 0; i < 10; ++i)
            writer.append(sampleOp(i));
    }
    TraceReader reader(tmp.path(), /*loop=*/true);
    for (int i = 0; i < 35; ++i) {
        const MicroOp got = reader.next();
        EXPECT_EQ(got.pc, sampleOp(i % 10).pc) << i;
    }
    EXPECT_EQ(reader.replayed(), 35u);
}

TEST(TraceTest, WrapCountIsTrackedAndExported)
{
    TempTrace tmp;
    {
        TraceWriter writer(tmp.path());
        for (int i = 0; i < 10; ++i)
            writer.append(sampleOp(i));
    }
    TraceReader reader(tmp.path(), /*loop=*/true);
    StatRegistry registry;
    reader.regStats(registry, "trace");

    for (int i = 0; i < 35; ++i)
        reader.next();
    // 35 reads over a 10-record trace rewind three times.
    EXPECT_EQ(reader.wraps(), 3u);
    EXPECT_DOUBLE_EQ(registry.scalarValue("trace.wraps"), 3.0);

    TraceReader once(tmp.path(), /*loop=*/false);
    for (int i = 0; i < 10; ++i)
        once.next();
    EXPECT_EQ(once.wraps(), 0u);
}

TEST(TraceTest, NonLoopingExhaustionIsFatal)
{
    TempTrace tmp;
    {
        TraceWriter writer(tmp.path());
        writer.append(sampleOp(0));
    }
    TraceReader reader(tmp.path(), /*loop=*/false);
    reader.next();
    EXPECT_EXIT(reader.next(), ::testing::ExitedWithCode(1),
                "exhausted");
}

TEST(TraceTest, RejectsGarbageFiles)
{
    TempTrace tmp;
    {
        std::FILE *f = std::fopen(tmp.path().c_str(), "wb");
        std::fputs("this is not a trace", f);
        std::fclose(f);
    }
    EXPECT_EXIT(TraceReader reader(tmp.path()),
                ::testing::ExitedWithCode(1), "not a VSV trace");
}

TEST(TraceTest, RejectsMissingFile)
{
    EXPECT_EXIT(TraceReader reader("/nonexistent/trace.vsvt"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceTest, GeneratorCaptureReplaysIdentically)
{
    // Capture 5000 ops of a real profile, then compare replay against
    // a fresh generator: identical streams.
    TempTrace tmp;
    {
        WorkloadGenerator gen(spec2kProfile("mcf"));
        TraceWriter writer(tmp.path());
        for (int i = 0; i < 5000; ++i)
            writer.append(gen.next());
    }

    WorkloadGenerator fresh(spec2kProfile("mcf"));
    TraceReader replay(tmp.path(), false);
    for (int i = 0; i < 5000; ++i) {
        const MicroOp a = fresh.next();
        const MicroOp b = replay.next();
        ASSERT_EQ(a.cls, b.cls) << i;
        ASSERT_EQ(a.addr, b.addr) << i;
        ASSERT_EQ(a.depDist1, b.depDist1) << i;
    }
}

/**
 * Deterministic mutations of a real 1000-op capture. Every mutated
 * file must be refused with a FatalError (throwable inside a sweep
 * worker) - never a panic, a sanitizer report or a clean decode.
 */
class TraceMutationTest : public testing::Test
{
  protected:
    static constexpr std::size_t headerBytes = 16;
    static constexpr std::size_t recordBytes = sizeof(TraceRecord);
    static constexpr std::size_t recordCount = 1000;

    static const std::string &
    capture()
    {
        static const std::string bytes = [] {
            TempTrace tmp;
            {
                WorkloadGenerator gen(spec2kProfile("gzip"));
                TraceWriter writer(tmp.path());
                for (std::size_t i = 0; i < recordCount; ++i)
                    writer.append(gen.next());
            }
            std::ifstream is(tmp.path(), std::ios::binary);
            return std::string(std::istreambuf_iterator<char>(is), {});
        }();
        return bytes;
    }

    /**
     * Write `bytes` to a file and replay every record it claims. Returns
     * the FatalError message, or "" when the whole file decoded.
     */
    static std::string
    replayError(const std::string &bytes)
    {
        TempTrace tmp;
        {
            std::ofstream os(tmp.path(), std::ios::binary);
            os.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()));
        }
        ScopedThrowingFatal guard;
        try {
            TraceReader reader(tmp.path(), /*loop=*/false);
            for (std::uint64_t i = 0; i < reader.records(); ++i)
                reader.next();
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(tmp.path()),
                      std::string::npos)
                << e.what();
            return e.what();
        }
        return "";
    }

    static std::string
    withCount(std::uint64_t count)
    {
        std::string bytes = capture();
        std::memcpy(bytes.data() + 8, &count, sizeof(count));
        return bytes;
    }
};

TEST_F(TraceMutationTest, TheUnmutatedCaptureDecodes)
{
    ASSERT_EQ(capture().size(), headerBytes + recordCount * recordBytes);
    EXPECT_EQ(replayError(capture()), "");
}

TEST_F(TraceMutationTest, EveryHeaderBitFlipIsRejected)
{
    for (std::size_t at = 0; at < headerBytes; ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bytes = capture();
            bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
            EXPECT_NE(replayError(bytes), "")
                << "byte " << at << ", bit " << bit;
        }
    }
}

TEST_F(TraceMutationTest, TruncationAtEveryRecordBoundaryIsRejected)
{
    const std::size_t full = capture().size();
    for (std::size_t k = 0; k <= recordCount; ++k) {
        const std::size_t boundary = headerBytes + k * recordBytes;
        for (const std::size_t size :
             {boundary - 1, boundary, boundary + 1}) {
            if (size >= full)
                continue;
            EXPECT_NE(replayError(capture().substr(0, size)), "")
                << "truncated to " << size << " bytes";
        }
    }
}

TEST_F(TraceMutationTest, HeaderCountsThatDisagreeWithTheFileAreRejected)
{
    for (const std::uint64_t count :
         {std::uint64_t{recordCount + 1}, std::uint64_t{recordCount - 1},
          std::uint64_t{1} << 61}) {
        const std::string error = replayError(withCount(count));
        EXPECT_NE(error.find("does not match"), std::string::npos)
            << "count " << count << ": " << error;
    }
}

TEST_F(TraceMutationTest, OutOfRangeFieldsAreRejectedWithTheRecordIndex)
{
    struct Field
    {
        std::size_t offset;
        char value;
    };
    // cls, brKind and taken are the record's first three bytes.
    for (const Field field : {Field{0, '\xff'}, Field{1, 9}, Field{2, 2}}) {
        for (const std::size_t record :
             {std::size_t{0}, recordCount / 2, recordCount - 1}) {
            std::string bytes = capture();
            bytes[headerBytes + record * recordBytes + field.offset] =
                field.value;
            const std::string error = replayError(bytes);
            EXPECT_NE(error.find("record " + std::to_string(record) + " "),
                      std::string::npos)
                << "field " << field.offset << ", record " << record
                << ": " << error;
        }
    }
}

} // namespace
} // namespace vsv
