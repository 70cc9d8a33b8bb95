/**
 * @file
 * Tests of the synthetic workload generators and SPEC2K profiles.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <string_view>

#include "harness/sweep.hh"
#include "snapshot/snapshot.hh"
#include "workload/workload.hh"

namespace vsv
{
namespace
{

WorkloadProfile
basicProfile()
{
    WorkloadProfile p;
    p.name = "test";
    p.seed = 5;
    return p;
}

TEST(WorkloadTest, DeterministicForSameSeed)
{
    WorkloadGenerator a(basicProfile());
    WorkloadGenerator b(basicProfile());
    for (int i = 0; i < 5000; ++i) {
        const MicroOp oa = a.next();
        const MicroOp ob = b.next();
        EXPECT_EQ(oa.cls, ob.cls);
        EXPECT_EQ(oa.addr, ob.addr);
        EXPECT_EQ(oa.pc, ob.pc);
        EXPECT_EQ(oa.depDist1, ob.depDist1);
        EXPECT_EQ(oa.taken, ob.taken);
    }
}

TEST(WorkloadTest, InstructionMixMatchesProfile)
{
    WorkloadProfile p = basicProfile();
    p.loadFrac = 0.30;
    p.storeFrac = 0.10;
    p.branchFrac = 0.15;
    WorkloadGenerator gen(p);

    std::map<OpClass, int> counts;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[gen.next().cls];

    EXPECT_NEAR(counts[OpClass::Load] / double(n), 0.30, 0.01);
    EXPECT_NEAR(counts[OpClass::Store] / double(n), 0.10, 0.01);
    EXPECT_NEAR(counts[OpClass::Branch] / double(n), 0.15, 0.01);
}

TEST(WorkloadTest, FpFractionControlsFpOps)
{
    WorkloadProfile p = basicProfile();
    p.fpFrac = 1.0;
    WorkloadGenerator gen(p);
    for (int i = 0; i < 2000; ++i) {
        const MicroOp op = gen.next();
        if (op.cls == OpClass::IntAlu || op.cls == OpClass::IntMult ||
            op.cls == OpClass::IntDiv) {
            FAIL() << "integer compute op in a pure-FP profile";
        }
    }
}

TEST(WorkloadTest, ColdScanAddressesStrideThroughFootprint)
{
    WorkloadProfile p = basicProfile();
    p.coldFrac = 1.0;
    p.warmFrac = 0.0;
    p.loadFrac = 1.0;
    p.storeFrac = p.branchFrac = 0.0;
    p.coldPattern = ColdPattern::Scan;
    p.coldStride = 64;
    p.swPrefetchCoverage = 0.0;
    WorkloadGenerator gen(p);

    Addr prev = 0;
    for (int i = 0; i < 100; ++i) {
        const MicroOp op = gen.next();
        ASSERT_EQ(op.cls, OpClass::Load);
        if (i > 0) {
            EXPECT_EQ(op.addr, prev + 64);
        }
        prev = op.addr;
    }
}

TEST(WorkloadTest, ChainLoadsDependOnPreviousChainLoad)
{
    WorkloadProfile p = basicProfile();
    p.coldFrac = 1.0;
    p.warmFrac = 0.0;
    p.loadFrac = 1.0;
    p.storeFrac = p.branchFrac = 0.0;
    p.coldPattern = ColdPattern::Chain;
    p.coldFootprint = 1 << 20;
    p.chainCount = 1;
    WorkloadGenerator gen(p);

    gen.next();  // first chain load has no producer yet
    for (int i = 0; i < 100; ++i) {
        const MicroOp op = gen.next();
        // Back-to-back chain loads: each depends on the previous one.
        EXPECT_EQ(op.depDist1, 1u);
    }
}

TEST(WorkloadTest, ChainVisitsManyDistinctBlocks)
{
    WorkloadProfile p = basicProfile();
    p.coldFrac = 1.0;
    p.warmFrac = 0.0;
    p.loadFrac = 1.0;
    p.storeFrac = p.branchFrac = 0.0;
    p.coldPattern = ColdPattern::Chain;
    p.coldFootprint = 1 << 20;  // 16K blocks
    WorkloadGenerator gen(p);

    std::set<Addr> blocks;
    for (int i = 0; i < 4000; ++i)
        blocks.insert(gen.next().addr);
    // A random permutation walk should rarely revisit early.
    EXPECT_GT(blocks.size(), 3800u);
}

TEST(WorkloadTest, SoftwarePrefetchesPrecedeTheirLoads)
{
    WorkloadProfile p = basicProfile();
    p.coldFrac = 0.5;
    p.loadFrac = 0.5;
    p.storeFrac = p.branchFrac = 0.0;
    p.coldPattern = ColdPattern::Scan;
    p.swPrefetchCoverage = 1.0;
    p.swPrefetchLookahead = 4;
    WorkloadGenerator gen(p);

    std::map<Addr, std::uint64_t> prefetch_pos;
    int covered = 0, total = 0;
    for (int i = 0; i < 20000; ++i) {
        const MicroOp op = gen.next();
        if (op.cls == OpClass::Prefetch) {
            prefetch_pos.emplace(op.addr, gen.generated());
        } else if (op.cls == OpClass::Load &&
                   op.addr >= 0x40000000ULL) {
            ++total;
            auto it = prefetch_pos.find(op.addr);
            if (it != prefetch_pos.end() &&
                it->second < gen.generated()) {
                ++covered;
            }
        }
    }
    ASSERT_GT(total, 100);
    // Full coverage modulo the initial lookahead window.
    EXPECT_GT(covered / double(total), 0.95);
}

TEST(WorkloadTest, BranchOutcomesAreConsistentPerSite)
{
    WorkloadProfile p = basicProfile();
    p.branchFrac = 0.5;
    p.branchNoise = 0.0;
    WorkloadGenerator gen(p);

    // Targets must be a deterministic function of the pc.
    std::map<Addr, Addr> site_target;
    for (int i = 0; i < 20000; ++i) {
        const MicroOp op = gen.next();
        if (op.cls != OpClass::Branch || op.brKind != BranchKind::Cond)
            continue;
        auto [it, inserted] = site_target.emplace(op.pc, op.target);
        if (!inserted) {
            EXPECT_EQ(it->second, op.target);
        }
    }
}

TEST(WorkloadTest, PcStaysInsideCodeFootprint)
{
    WorkloadProfile p = basicProfile();
    p.codeFootprint = 8 * 1024;
    WorkloadGenerator gen(p);
    for (int i = 0; i < 10000; ++i) {
        const MicroOp op = gen.next();
        EXPECT_GE(op.pc, 0x400000u);
        EXPECT_LT(op.pc, 0x400000u + p.codeFootprint);
    }
}

TEST(Spec2kTest, AllBenchmarksHaveProfiles)
{
    EXPECT_EQ(spec2kBenchmarks().size(), 26u);
    for (const auto &name : spec2kBenchmarks()) {
        const WorkloadProfile p = spec2kProfile(name);
        EXPECT_EQ(p.name, name);
        EXPECT_GT(p.targetIpc, 0.0) << name;
    }
}

TEST(Spec2kTest, HighMrSubsetMatchesTable2)
{
    // The paper's Figures 5/6 use benchmarks with MR > 4.
    EXPECT_EQ(highMrBenchmarks().size(), 7u);
    for (const auto &name : highMrBenchmarks()) {
        EXPECT_GT(spec2kProfile(name).targetMrBase, 4.0) << name;
    }
    // And the rest are all at or below 4.
    for (const auto &name : spec2kBenchmarks()) {
        bool high = false;
        for (const auto &h : highMrBenchmarks())
            high = high || h == name;
        if (!high) {
            EXPECT_LE(spec2kProfile(name).targetMrBase, 4.0) << name;
        }
    }
}

TEST(Spec2kTest, UnknownBenchmarkIsFatal)
{
    EXPECT_DEATH(spec2kProfile("doom3"), "unknown");
}

TEST(Spec2kTest, CodeFootprintUnderOneInstructionIsFatal)
{
    // The code loop has codeFootprint / 4 slots; with none, the first
    // op's pc would be taken modulo zero.
    for (const std::uint64_t bytes : {0u, 3u}) {
        WorkloadProfile p = spec2kProfile("gzip");
        p.codeFootprint = bytes;
        EXPECT_DEATH(WorkloadGenerator{p},
                     "gzip: codeFootprint " + std::to_string(bytes));
    }
}

TEST(Spec2kTest, ProfilesAreDistinctStreams)
{
    WorkloadGenerator mcf(spec2kProfile("mcf"));
    WorkloadGenerator ammp(spec2kProfile("ammp"));
    int identical = 0;
    for (int i = 0; i < 200; ++i) {
        const MicroOp a = mcf.next();
        const MicroOp b = ammp.next();
        if (a.cls == b.cls && a.addr == b.addr)
            ++identical;
    }
    EXPECT_LT(identical, 100);
}

/** FNV-1a 64 over every MicroOp field of the next `count` ops. */
std::uint64_t
streamDigest(WorkloadGenerator &gen, std::uint64_t count)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto mix = [&hash](std::uint64_t value, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            hash ^= (value >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    for (std::uint64_t i = 0; i < count; ++i) {
        const MicroOp op = gen.next();
        mix(static_cast<std::uint8_t>(op.cls), 1);
        mix(static_cast<std::uint8_t>(op.brKind), 1);
        mix(op.taken, 1);
        mix(op.depDist1, 4);
        mix(op.depDist2, 4);
        mix(op.pc, 8);
        mix(op.addr, 8);
        mix(op.target, 8);
    }
    return hash;
}

/** Digests of a profile's stream at run seeds 0 and 1: of its first
 *  200k ops, and of its first 2M (longer than any warmup). */
struct PinnedStream
{
    const char *benchmark;
    std::uint64_t seed0;
    std::uint64_t seed1;
    std::uint64_t long0;
    std::uint64_t long1;
};

// The 200k digests were recorded from the generator before its per-op
// draws were table-driven, the 2M digests before its draws were made
// branch-free; any change to the stream of any profile fails here.
constexpr PinnedStream pinnedStreams[] = {
    {"ammp", 0x8c1840effc02a4c4ULL, 0xde83e5ceb60ba294ULL,
     0x298824ee94697e05ULL, 0xcbf5cc14e3ebb40eULL},
    {"applu", 0x58050983b9574dcfULL, 0x94220d3cd0cf3ba1ULL,
     0x5799cc4808a8ea1bULL, 0xb0584873b8f2b551ULL},
    {"apsi", 0xcae5f73f6466e16bULL, 0x6ed1405b8efdf1a7ULL,
     0x09cd373203411915ULL, 0x2cee9eea4847699cULL},
    {"art", 0x87494982940fa82dULL, 0x2dd4c0c6553ea808ULL,
     0x49ef1fcee41c20d9ULL, 0x227fb1ec1c3b5482ULL},
    {"bzip2", 0x6c5fc9f522e18f90ULL, 0xbfd7aa20d464541aULL,
     0xba65d290cf486e65ULL, 0x2e618a35e398285aULL},
    {"crafty", 0xcdec592cfc714d6bULL, 0x9eb7e01a97b6eaf3ULL,
     0x49dcc7d6f544df04ULL, 0x94733b1232db9b0cULL},
    {"eon", 0xb79a1322284efd7eULL, 0xa4460cd187a8fdd5ULL,
     0xecfc211b18ba35c3ULL, 0x92d0d1a5d26b941dULL},
    {"equake", 0xf7d45febc89795b0ULL, 0x5298f0fdf518d9c8ULL,
     0x10ab8104a7c136bfULL, 0xe4f07e7f414399c3ULL},
    {"facerec", 0x51f23414491f2808ULL, 0x4b93371f4e4998ffULL,
     0xbdff6b9e4e0bc183ULL, 0xfe7c3e0911d71037ULL},
    {"fma3d", 0x8ebe90156b275a04ULL, 0x940c99a2a9f54e44ULL,
     0x71de0465c80ffc4fULL, 0xd58300ef0d042318ULL},
    {"galgel", 0xcf4b2f56d78e6103ULL, 0x9d2b1c9ba2f56953ULL,
     0x3e3d6ec6e4753003ULL, 0x60cfe16815052de7ULL},
    {"gap", 0xf8363997b4f99eccULL, 0x0cf52f8a62ab72ddULL,
     0xa7391902122a1be2ULL, 0xa7209255909795daULL},
    {"gcc", 0x666e19e2c1c0a6d6ULL, 0xbf94b389f98bca2aULL,
     0xdfa22ed1bf8c23e9ULL, 0xc632235454140b5aULL},
    {"gzip", 0xce730da7292f980dULL, 0xd26353ee61983af9ULL,
     0xda16af4d4138cf22ULL, 0x65782d747ec74276ULL},
    {"lucas", 0xd54fbe5e5dfc09efULL, 0x5a955a187842beebULL,
     0x56aa99212da7c9f6ULL, 0xf3099251d1f2bea7ULL},
    {"mcf", 0x9fbdaa2bcb74a671ULL, 0xf09592be3e79cda1ULL,
     0x0d55436ec281b21eULL, 0x21b01084caeb84a4ULL},
    {"mesa", 0xd65d2498c5005c3bULL, 0x37943baa1ae96182ULL,
     0x7b1b412f09bedec0ULL, 0xcdfa8a168c5decb8ULL},
    {"mgrid", 0x96ab4d30c8b7bcfdULL, 0x179413fe5f17919eULL,
     0x416ddd8e5a5aee42ULL, 0x107d1ac2164a8aeeULL},
    {"parser", 0x5cf9f31418733969ULL, 0x0509cedcfe201729ULL,
     0x1fd91c006da07434ULL, 0x360571bce7a96e33ULL},
    {"perlbmk", 0x7a450bf35edef7f6ULL, 0xf9c602ac5d4bff30ULL,
     0xb621b2aaae87ee00ULL, 0x9e633d75836bd021ULL},
    {"sixtrack", 0xf56cf734d6f03cf6ULL, 0xcf6d5e694dcaf702ULL,
     0x05865a11f557e3cfULL, 0xab3005b4575a86bfULL},
    {"swim", 0x5d83d328339e5075ULL, 0x6c7c856a354700caULL,
     0xe503d6a8eb3a031dULL, 0x9ed3933baff59983ULL},
    {"twolf", 0xf39e72ac97994106ULL, 0x234c1ca3d85eea9aULL,
     0xde40dc75a7dda216ULL, 0xf34eabdacea1cc00ULL},
    {"vortex", 0xe0ed28313ea739fdULL, 0x94984cd9c52dc407ULL,
     0x64cc6b6934b6ce54ULL, 0x7b50a35a8c37053cULL},
    {"vpr", 0x6092508291b2616aULL, 0x439d6a0c58fcccdaULL,
     0x13ea0baabee3d20cULL, 0xe723dcf49fec91c2ULL},
    {"wupwise", 0xaef16d2df73bc0e7ULL, 0x464d836b6557980fULL,
     0x85abe5a26c0b2f53ULL, 0xb334b5d4e171e49eULL},
};

/** Names the parameter in test names (not its pointer's bytes). */
void
PrintTo(const PinnedStream &pin, std::ostream *os)
{
    *os << pin.benchmark;
}

class WorkloadStreamTest : public testing::TestWithParam<PinnedStream>
{
};

TEST_P(WorkloadStreamTest, FirstOpsArePinned)
{
    const PinnedStream &pin = GetParam();
    const std::uint64_t expected[] = {pin.seed0, pin.seed1};
    for (const std::uint64_t seed : {0u, 1u}) {
        WorkloadProfile profile = spec2kProfile(pin.benchmark);
        profile.seed = mixSeed(seed, profile.seed);
        WorkloadGenerator gen(profile);
        const std::uint64_t digest = streamDigest(gen, 200000);
        EXPECT_EQ(digest, expected[seed])
            << std::hex << "{\"" << pin.benchmark << "\", 0x" << digest
            << "ULL} at run seed " << seed;
    }
}

TEST_P(WorkloadStreamTest, FirstTwoMillionOpsArePinned)
{
    // A benchmark-scale Time-Keeping warmup streams 500k ops, and the
    // generator's rarer paths (chain rewires, scan jitter, prefetch
    // bursts) must match over all of them.
    const PinnedStream &pin = GetParam();
    const std::uint64_t expected[] = {pin.long0, pin.long1};
    for (const std::uint64_t seed : {0u, 1u}) {
        WorkloadProfile profile = spec2kProfile(pin.benchmark);
        profile.seed = mixSeed(seed, profile.seed);
        WorkloadGenerator gen(profile);
        const std::uint64_t digest = streamDigest(gen, 2000000);
        EXPECT_EQ(digest, expected[seed])
            << std::hex << "2M ops of " << pin.benchmark << ": 0x"
            << digest << "ULL at run seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Spec2k, WorkloadStreamTest, testing::ValuesIn(pinnedStreams),
    [](const testing::TestParamInfo<PinnedStream> &info) {
        return std::string(info.param.benchmark);
    });

TEST(WorkloadSnapshotTest, RestoreMidLoopResumesTheStream)
{
    // 10007 is prime, so the snapshot lands inside the code loop of
    // every profile and the restored generator has to recompute its
    // loop slot from the saved position.
    constexpr std::uint64_t taken = 10007;
    for (const std::string &name : spec2kBenchmarks()) {
        SCOPED_TRACE(name);
        const WorkloadProfile profile = spec2kProfile(name);
        ASSERT_NE(taken % (profile.codeFootprint / 4), 0u);
        WorkloadGenerator source(profile, 1);
        for (std::uint64_t i = 0; i < taken; ++i)
            source.next();
        SnapshotWriter writer("fp");
        source.snapshot(writer);
        const SnapshotBytes bytes = writer.finish();

        SnapshotReader reader(bytes.view());
        WorkloadGenerator restored(profile);
        restored.restore(reader);
        EXPECT_EQ(restored.generated(), taken);
        for (int i = 0; i < 20000; ++i) {
            const MicroOp want = source.next();
            const MicroOp got = restored.next();
            ASSERT_EQ(got.pc, want.pc) << "op " << i;
            ASSERT_EQ(got.cls, want.cls) << "op " << i;
            ASSERT_EQ(got.addr, want.addr) << "op " << i;
            ASSERT_EQ(got.target, want.target) << "op " << i;
            ASSERT_EQ(got.depDist1, want.depDist1) << "op " << i;
            ASSERT_EQ(got.depDist2, want.depDist2) << "op " << i;
        }
    }
}

/** A stream-index field of the "workload" snapshot section. */
enum class IndexField
{
    None,
    ScanStream,   ///< nextScanStream
    ChainLink,    ///< chainNext[0]
    ChainCursor,  ///< chainCursor[0]
    NextChain,    ///< nextChain
    ColdChainId,  ///< coldWindow[0].chainId
};

/**
 * Copy a snapshot holding one "workload" section field by field,
 * setting `field` to `value` on the way, and frame the result with
 * fresh sizes and checksums - a snapshot that is valid at every layer
 * except the one index. Mirrors WorkloadGenerator::snapshot's layout.
 */
std::string
reframeWorkload(std::string_view bytes, IndexField field,
                std::uint64_t value)
{
    SnapshotReader r(bytes);
    SnapshotWriter w(r.fingerprint());
    const auto u32 = [&](IndexField f) {
        const std::uint32_t v = r.u32();
        w.u32(f == field ? static_cast<std::uint32_t>(value) : v);
    };
    const auto u64 = [&]() { w.u64(r.u64()); };
    const auto u64s = [&]() {
        const std::uint64_t n = r.u64();
        w.u64(n);
        for (std::uint64_t i = 0; i < n; ++i)
            u64();
    };
    const auto u32s = [&](IndexField f) {
        const std::uint64_t n = r.u64();
        w.u64(n);
        for (std::uint64_t i = 0; i < n; ++i)
            u32(i == 0 ? f : IndexField::None);
    };

    r.begin("workload");
    w.begin("workload");
    w.str(r.str());
    for (int i = 0; i < 1 + 4 + 4 + 4; ++i)  // seed, two RNGs, counters
        u64();
    const std::uint64_t window = r.u64();
    w.u64(window);
    for (std::uint64_t i = 0; i < window; ++i) {
        u64();
        const std::int32_t chain_id = r.i32();
        w.i32(i == 0 && field == IndexField::ColdChainId
                  ? static_cast<std::int32_t>(value)
                  : chain_id);
    }
    w.u32(r.u32());  // coldBurstRemaining
    u64s();          // pendingPrefetches
    u64s();          // scanCursors
    u32(IndexField::ScanStream);
    u64();           // regularCursor
    u32s(IndexField::ChainLink);
    u32s(IndexField::ChainCursor);
    u64s();          // lastChainLoadPos
    u32(IndexField::NextChain);
    u64s();          // callStack
    const std::uint64_t buffered = r.u64();
    w.u64(buffered);
    for (std::uint64_t i = 0; i < buffered; ++i) {
        w.u8(r.u8());
        w.u8(r.u8());
        w.b(r.b());
        w.u32(r.u32());
        w.u32(r.u32());
        u64();
        u64();
        u64();
    }
    r.end();
    w.end();
    return std::string(w.finish().view());
}

TEST(WorkloadSnapshotTest, OutOfRangeStreamIndicesAreRejected)
{
    struct Case
    {
        const char *benchmark;
        IndexField field;
        std::uint64_t value;
    };
    // mcf is a 3-chain MutatingChain over 98304 blocks with one scan
    // stream; ammp a SeqChain (one chain slot); art a plain Scan,
    // whose cold references carry no chain at all.
    const Case cases[] = {
        {"art", IndexField::ScanStream, 1},
        {"mcf", IndexField::ScanStream, 0xffffffffu},
        {"mcf", IndexField::ChainLink, 98304},
        {"mcf", IndexField::ChainCursor, 98304},
        {"mcf", IndexField::NextChain, 3},
        {"mcf", IndexField::ColdChainId, 3},
        {"mcf", IndexField::ColdChainId,
         static_cast<std::uint32_t>(-2)},
        {"ammp", IndexField::ColdChainId, 1},
        {"art", IndexField::ColdChainId, 0},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.benchmark) + " field " +
                     std::to_string(static_cast<int>(c.field)) + " = " +
                     std::to_string(c.value));
        WorkloadGenerator source(spec2kProfile(c.benchmark));
        for (int i = 0; i < 5000; ++i)
            source.next();
        SnapshotWriter writer("fp");
        source.snapshot(writer);
        const SnapshotBytes bytes = writer.finish();

        // The unmutated copy restores: the re-framing itself is sound.
        {
            const std::string same = reframeWorkload(
                bytes.view(), IndexField::None, 0);
            SnapshotReader reader(same);
            WorkloadGenerator target(spec2kProfile(c.benchmark));
            EXPECT_NO_THROW(target.restore(reader));
        }

        const std::string bad =
            reframeWorkload(bytes.view(), c.field, c.value);
        SnapshotReader reader(bad);
        WorkloadGenerator target(spec2kProfile(c.benchmark));
        try {
            target.restore(reader);
        } catch (const SnapshotError &) {
            continue;
        }
        ADD_FAILURE() << "out-of-range index accepted";
        // Drive the accepted state, so a sanitizer build reports the
        // out-of-bounds access it leads to.
        for (int i = 0; i < 20000; ++i)
            target.next();
    }
}

} // namespace
} // namespace vsv
