/**
 * @file
 * Stress and corner-case tests of the memory hierarchy: MSHR merge
 * semantics, demand escalation of prefetches, writeback paths, bus
 * serialization under bursts, and integration with the Time-Keeping
 * engine's buffer.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cache/hierarchy.hh"
#include "power/model.hh"
#include "prefetch/timekeeping.hh"

namespace vsv
{
namespace
{

class CountingListener : public MissListener
{
  public:
    void
    demandL2MissDetected(Tick, std::uint32_t outstanding) override
    {
        ++detections;
        lastDetectOutstanding = outstanding;
    }
    void
    demandL2MissReturned(Tick, std::uint32_t outstanding) override
    {
        ++returns;
        lastOutstanding = outstanding;
    }

    int detections = 0;
    int returns = 0;
    std::uint32_t lastDetectOutstanding = 0;
    std::uint32_t lastOutstanding = 0;
};

class HierarchyStressTest : public ::testing::Test
{
  protected:
    HierarchyStressTest() : power(), mem(HierarchyConfig{}, power)
    {
        mem.setMissListener(&listener);
    }

    void
    runTo(Tick until)
    {
        for (Tick t = cursor; t <= until; ++t)
            mem.service(t);
        cursor = until + 1;
    }

    PowerModel power;
    MemoryHierarchy mem;
    CountingListener listener;
    Tick cursor = 0;
};

TEST_F(HierarchyStressTest, DemandMergeIntoPrefetchEscalatesReturn)
{
    // A prefetch starts the L2 trip; a demand load to the same block
    // merges. No detection event fires (the L2 access that missed was
    // the prefetch), but the eventual return must be reported as
    // demand (it unblocks real work).
    mem.dataAccess(0x40000000, false, /*is_prefetch=*/true, 0, {});
    int completions = 0;
    // Different L1 block, same 64B L2 block -> merges at the L2 MSHR.
    mem.dataAccess(0x40000020, false, false, 5,
                   [&](Tick) { ++completions; });
    runTo(500);

    EXPECT_EQ(completions, 1);
    EXPECT_EQ(listener.detections, 0);
    EXPECT_EQ(listener.returns, 1);
    EXPECT_EQ(mem.demandL2MissCount(), 0u);
}

TEST_F(HierarchyStressTest, ManyLoadsToOneBlockAllComplete)
{
    int completions = 0;
    for (int i = 0; i < 16; ++i) {
        const MemAccessOutcome outcome = mem.dataAccess(
            0x40000000 + (i % 4) * 8, false, false, i,
            [&](Tick) { ++completions; });
        EXPECT_TRUE(outcome.accepted);
    }
    runTo(500);
    EXPECT_EQ(completions, 16);
    EXPECT_EQ(mem.demandL2MissCount(), 1u);
    EXPECT_TRUE(mem.quiescent());
}

TEST_F(HierarchyStressTest, BurstOfMissesSerializesOnTheBus)
{
    // 16 independent block misses issued simultaneously: each needs a
    // request slot (4 ticks) and a 64B response (8 ticks), so the
    // last completion is pushed well past a lone miss's latency.
    std::vector<Tick> completions;
    for (int i = 0; i < 16; ++i) {
        mem.dataAccess(0x40000000 + i * 4096, false, false, 0,
                       [&](Tick when) { completions.push_back(when); });
    }
    runTo(2000);
    ASSERT_EQ(completions.size(), 16u);

    const Tick lone = 2 + 12 + 4 + 100 + 8;
    EXPECT_EQ(completions.front(), lone);
    // 15 further responses at >= 8 ticks each on the shared bus.
    EXPECT_GE(completions.back(), lone + 15 * 8);
    // But they do overlap the DRAM latency (split transactions).
    EXPECT_LT(completions.back(), lone + 15 * 100);
}

TEST_F(HierarchyStressTest, DirtyL1VictimsWriteBackToL2)
{
    // Dirty a block, then evict it with two conflicting fills (L1 is
    // 2-way; same-set blocks are 32KB apart).
    mem.dataAccess(0x40000000, true, false, 0, {});
    runTo(400);
    mem.dataAccess(0x40000000 + 32 * 1024, false, false, 401, {});
    runTo(800);
    mem.dataAccess(0x40000000 + 64 * 1024, false, false, 801, {});
    runTo(1200);

    StatRegistry registry;
    mem.regStats(registry, "mem");
    EXPECT_GE(registry.scalarValue("mem.writebacksToL2"), 1.0);
    // The written-back data is still an L2 hit afterwards.
    std::optional<Tick> done;
    const MemAccessOutcome outcome = mem.dataAccess(
        0x40000000, false, false, 1201, [&](Tick when) { done = when; });
    EXPECT_FALSE(outcome.immediate);
    runTo(1400);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(*done, 1201u + 2 + 12);  // L2 hit, no memory trip
}

TEST_F(HierarchyStressTest, L2CapacityEvictionsWriteBackToMemory)
{
    // Fill more dirty blocks than the 2MB L2 holds; dirty victims
    // must generate memory writebacks.
    HierarchyConfig config;
    config.l2 = CacheConfig{"l2", 64 * 1024, 8, 64, 12};  // small L2
    MemoryHierarchy small(config, power);
    Tick t = 0;
    for (int i = 0; i < 4096; ++i) {
        small.dataAccess(0x40000000 + i * 64, true, false, t, {});
        for (; t < static_cast<Tick>(i + 1) * 200; ++t)
            small.service(t);
    }
    StatRegistry registry;
    small.regStats(registry, "mem");
    EXPECT_GT(registry.scalarValue("mem.writebacksToMemory"), 100.0);
}

TEST_F(HierarchyStressTest, OutstandingNeverUnderflows)
{
    // Random mixed traffic; the returned outstanding count must stay
    // consistent (never wrap). Service between issues so the MSHRs
    // drain (each accepted access completes within ~130 ticks).
    int accepted = 0;
    for (int i = 0; i < 200; ++i) {
        // 15-tick spacing keeps bus demand (12 ticks/miss) below
        // saturation so the MSHRs drain.
        const Tick now = static_cast<Tick>(i) * 15;
        runTo(now);
        if (mem.dataAccess(0x40000000 + i * 4096, i % 3 == 0, false,
                           now, {})
                .accepted) {
            ++accepted;
        }
    }
    runTo(40000);
    EXPECT_TRUE(mem.quiescent());
    EXPECT_EQ(accepted, 200);
    EXPECT_EQ(listener.returns, accepted);
    EXPECT_EQ(listener.lastOutstanding, 0u);
}

TEST_F(HierarchyStressTest, TimekeepingBufferHitPathThroughHierarchy)
{
    TimekeepingPrefetcher tk(TimekeepingConfig{}, HierarchyConfig{}.l1d,
                             power);
    MemoryHierarchy with_tk(HierarchyConfig{}, power);
    with_tk.setPrefetcher(&tk);

    // Simulate a hardware prefetch fill, then a demand miss to it.
    tk.fillBuffer(0x40000000, 0);
    const MemAccessOutcome outcome =
        with_tk.dataAccess(0x40000008, false, false, 10, {});
    EXPECT_TRUE(outcome.accepted);
    EXPECT_TRUE(outcome.immediate);
    EXPECT_EQ(outcome.latencyCycles, 2u);  // buffer latency
    // The block was promoted into the L1D.
    EXPECT_TRUE(with_tk.l1dCache().probe(0x40000000));
}

TEST_F(HierarchyStressTest, HardwarePrefetchSkipsResidentBlocks)
{
    // Bring a block into the L2 via a demand miss, then ask for a
    // hardware prefetch of it: nothing should be issued.
    mem.dataAccess(0x40000000, false, false, 0, {});
    runTo(400);
    StatRegistry registry;
    mem.regStats(registry, "mem");
    const double before = registry.scalarValue("mem.prefetchL2Misses");
    mem.issueHardwarePrefetch(0x40000000, 401);
    runTo(800);
    EXPECT_DOUBLE_EQ(registry.scalarValue("mem.prefetchL2Misses"),
                     before);
}

TEST_F(HierarchyStressTest, InstAndDataMissesShareTheL2Path)
{
    std::optional<Tick> inst_done, data_done;
    mem.instFetch(0x40000000, 0, [&](Tick when) { inst_done = when; });
    mem.dataAccess(0x40000020, false, false, 0,
                   [&](Tick when) { data_done = when; });
    runTo(500);
    ASSERT_TRUE(inst_done && data_done);
    // Same 64B L2 block: the two L1 misses merged into one L2 trip
    // and one demand miss.
    EXPECT_EQ(mem.demandL2MissCount(), 1u);
}

} // namespace
} // namespace vsv
