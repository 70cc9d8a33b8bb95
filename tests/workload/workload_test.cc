/**
 * @file
 * Tests of the synthetic workload generators and SPEC2K profiles.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

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
reframeWorkload(const std::string &bytes, IndexField field,
                std::uint64_t value)
{
    std::istringstream is(bytes);
    SnapshotReader r(is);
    std::ostringstream os;
    SnapshotWriter w(os, r.fingerprint());
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
    w.finish();
    return os.str();
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
        std::ostringstream os;
        SnapshotWriter writer(os, "fp");
        source.snapshot(writer);
        writer.finish();

        // The unmutated copy restores: the re-framing itself is sound.
        {
            const std::string same = reframeWorkload(
                os.str(), IndexField::None, 0);
            std::istringstream is(same);
            SnapshotReader reader(is);
            WorkloadGenerator target(spec2kProfile(c.benchmark));
            EXPECT_NO_THROW(target.restore(reader));
        }

        const std::string bad = reframeWorkload(os.str(), c.field, c.value);
        std::istringstream is(bad);
        SnapshotReader reader(is);
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
