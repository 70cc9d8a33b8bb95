/**
 * @file
 * Tests of the micro-op model and functional-unit timing tables.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "isa/funcunits.hh"
#include "isa/microop.hh"

namespace vsv
{
namespace
{

TEST(IsaTest, EveryOpClassHasANameAndTiming)
{
    for (std::uint8_t i = 0;
         i < static_cast<std::uint8_t>(OpClass::NumOpClasses); ++i) {
        const auto cls = static_cast<OpClass>(i);
        EXPECT_FALSE(opClassName(cls).empty());
        const OpTiming timing = opTiming(cls);
        EXPECT_GE(timing.latency, 1u);
        EXPECT_LT(static_cast<std::size_t>(timing.pool), numFuPools);
    }
}

TEST(IsaTest, MemOpClassification)
{
    EXPECT_TRUE(isMemOp(OpClass::Load));
    EXPECT_TRUE(isMemOp(OpClass::Store));
    EXPECT_TRUE(isMemOp(OpClass::Prefetch));
    EXPECT_FALSE(isMemOp(OpClass::IntAlu));
    EXPECT_FALSE(isMemOp(OpClass::Branch));
    EXPECT_FALSE(isMemOp(OpClass::FpMult));
}

TEST(IsaTest, DividersAreUnpipelined)
{
    EXPECT_FALSE(opTiming(OpClass::IntDiv).pipelined);
    EXPECT_FALSE(opTiming(OpClass::FpDiv).pipelined);
    EXPECT_TRUE(opTiming(OpClass::IntAlu).pipelined);
    EXPECT_TRUE(opTiming(OpClass::FpMult).pipelined);
}

TEST(IsaTest, LatencyOrderingIsSane)
{
    // Divide > multiply > add, in both int and FP.
    EXPECT_GT(opTiming(OpClass::IntDiv).latency,
              opTiming(OpClass::IntMult).latency);
    EXPECT_GT(opTiming(OpClass::IntMult).latency,
              opTiming(OpClass::IntAlu).latency);
    EXPECT_GT(opTiming(OpClass::FpDiv).latency,
              opTiming(OpClass::FpMult).latency);
    EXPECT_GE(opTiming(OpClass::FpMult).latency,
              opTiming(OpClass::FpAlu).latency);
}

TEST(IsaTest, MemoryOpsUseIntAluForAgen)
{
    EXPECT_EQ(opTiming(OpClass::Load).pool, FuPool::IntAlu);
    EXPECT_EQ(opTiming(OpClass::Store).pool, FuPool::IntAlu);
    EXPECT_EQ(opTiming(OpClass::Prefetch).pool, FuPool::IntAlu);
    EXPECT_EQ(opTiming(OpClass::Branch).pool, FuPool::IntAlu);
}

TEST(IsaTest, Table1PoolSizes)
{
    const FuPoolSizes pools;
    EXPECT_EQ(pools.size(FuPool::IntAlu), 8u);
    EXPECT_EQ(pools.size(FuPool::IntMulDiv), 2u);
    EXPECT_EQ(pools.size(FuPool::FpAlu), 4u);
    EXPECT_EQ(pools.size(FuPool::FpMulDiv), 4u);
}

TEST(IsaTest, MicroOpDefaults)
{
    const MicroOp op;
    EXPECT_EQ(op.cls, OpClass::IntAlu);
    EXPECT_EQ(op.depDist1, 0u);
    EXPECT_EQ(op.depDist2, 0u);
    EXPECT_EQ(op.brKind, BranchKind::NotBranch);
    EXPECT_FALSE(op.taken);
}

TEST(FuPoolSetTest, CursorPicksTheFirstFreeUnit)
{
    // Seeded mixes of every op class, unpipelined divides included,
    // over the Table 1 pools and a narrow set: after every acquire the
    // unit free times must equal those of a scan from each pool's
    // first unit, so the cursor took the same unit (or none).
    for (const FuPoolSizes sizes :
         {FuPoolSizes{}, FuPoolSizes{{1, 1, 2, 1}}, FuPoolSizes{{3, 2, 1, 2}}}) {
        FuPoolSet units(sizes);
        std::array<std::uint32_t, numFuPools + 1> first{};
        for (std::size_t pool = 0; pool < numFuPools; ++pool)
            first[pool + 1] = first[pool] + sizes.count[pool];
        std::vector<Cycle> reference(first[numFuPools], 0);
        std::uint64_t state = 42;
        std::uint64_t taken = 0, refused = 0;
        for (Cycle cycle = 1; cycle <= 20000; ++cycle) {
            units.beginCycle(cycle);
            state = state * 6364136223846793005ULL + 1;
            const unsigned attempts = (state >> 59) % 12;
            for (unsigned a = 0; a < attempts; ++a) {
                state = state * 6364136223846793005ULL + 1;
                const auto cls = static_cast<OpClass>(
                    (state >> 40) %
                    static_cast<unsigned>(OpClass::NumOpClasses));
                const OpTiming timing = opTiming(cls);
                const auto pool = static_cast<std::size_t>(timing.pool);
                bool want = false;
                for (std::uint32_t u = first[pool]; u < first[pool + 1];
                     ++u) {
                    if (reference[u] <= cycle) {
                        reference[u] = cycle + timing.busyCycles();
                        want = true;
                        break;
                    }
                }
                ASSERT_EQ(units.acquire(pool, timing.busyCycles()), want)
                    << "cycle " << cycle;
                ASSERT_EQ(units.freeCycles(), reference) << "cycle " << cycle;
                (want ? taken : refused) += 1;
            }
        }
        EXPECT_GT(taken, 10000u);
        EXPECT_GT(refused, 1000u);
    }
}

} // namespace
} // namespace vsv
