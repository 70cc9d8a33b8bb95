/**
 * @file
 * Tests of the MSHR file.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cache/mshr.hh"
#include "common/random.hh"

namespace vsv
{
namespace
{

TEST(MshrTest, AllocateFindRelease)
{
    MshrFile mshrs("t", 4);
    EXPECT_EQ(mshrs.find(0x100), nullptr);

    MshrEntry *entry = mshrs.allocate(0x100, 5);
    ASSERT_NE(entry, nullptr);
    entry->demand = true;
    EXPECT_EQ(mshrs.inUse(), 1u);
    EXPECT_EQ(mshrs.find(0x100), entry);

    const MshrEntry released = *mshrs.release(0x100);
    EXPECT_TRUE(released.demand);
    EXPECT_EQ(mshrs.inUse(), 0u);
    EXPECT_EQ(mshrs.find(0x100), nullptr);
}

TEST(MshrTest, FullFileRejectsAllocation)
{
    MshrFile mshrs("t", 2);
    EXPECT_NE(mshrs.allocate(0x100, 0), nullptr);
    EXPECT_NE(mshrs.allocate(0x200, 0), nullptr);
    EXPECT_TRUE(mshrs.full());
    EXPECT_EQ(mshrs.allocate(0x300, 0), nullptr);

    mshrs.release(0x100);
    EXPECT_FALSE(mshrs.full());
    EXPECT_NE(mshrs.allocate(0x300, 0), nullptr);
}

TEST(MshrTest, TargetsAccumulateAndReturn)
{
    MshrFile mshrs("t", 2);
    MshrEntry *entry = mshrs.allocate(0x100, 0);
    int fired = 0;
    entry->targets.push_back([&](Tick) { ++fired; });
    entry->targets.push_back([&](Tick) { ++fired; });

    const auto released = mshrs.release(0x100);
    for (const MissTarget &t : released->targets)
        t(10);
    EXPECT_EQ(fired, 2);
}

TEST(MshrTest, DemandOutstandingCountsOnlyDemandEntries)
{
    MshrFile mshrs("t", 4);
    mshrs.allocate(0x100, 0)->demand = true;
    mshrs.allocate(0x200, 0)->demand = false;
    mshrs.allocate(0x300, 0)->demand = true;
    EXPECT_EQ(mshrs.demandOutstanding(), 2u);
    mshrs.release(0x100);
    EXPECT_EQ(mshrs.demandOutstanding(), 1u);
}

TEST(MshrTest, RandomSequenceMatchesReferenceMap)
{
    // Allocate, merge and release at random against a map from each
    // tracked block to its demand flag and its targets' ids, in merge
    // order. A target records its id when it fires.
    struct Tracked
    {
        bool demand = false;
        std::vector<int> targets;
    };
    const std::uint32_t capacity = 8;
    MshrFile mshrs("t", capacity);
    std::map<Addr, Tracked> reference;
    std::map<const MshrEntry *, Addr> lastBlock;  ///< per entry
    std::map<const MshrEntry *, std::size_t> capacityAtRelease;
    std::vector<int> fired;
    int next_id = 0;
    int reuses = 0;
    Rng rng(31);
    for (int step = 0; step < 20000; ++step) {
        const Addr block = (rng.nextBounded(3 * capacity) + 1) * 64;
        MshrEntry *entry = mshrs.find(block);
        const auto it = reference.find(block);
        ASSERT_EQ(entry != nullptr, it != reference.end())
            << "step " << step;
        const std::uint64_t kind = rng.nextBounded(3);
        if (!entry && kind != 2) {
            entry = mshrs.allocate(block, step);
            if (reference.size() == capacity) {
                EXPECT_EQ(entry, nullptr);
                EXPECT_TRUE(mshrs.full());
                continue;
            }
            ASSERT_NE(entry, nullptr);
            EXPECT_FALSE(entry->demand);
            EXPECT_FALSE(entry->isWrite);
            EXPECT_TRUE(entry->targets.empty());
            const auto old = lastBlock.find(entry);
            if (old != lastBlock.end()) {
                // A reused entry: find() no longer maps its old block
                // to it, and its target list kept the capacity it had
                // when released.
                ++reuses;
                if (old->second != block) {
                    const MshrEntry *other = mshrs.find(old->second);
                    EXPECT_NE(other, entry);
                    EXPECT_EQ(other != nullptr,
                              reference.count(old->second) != 0);
                }
                EXPECT_GE(entry->targets.capacity(),
                          capacityAtRelease.at(entry));
            }
            EXPECT_EQ(mshrs.find(block), entry);
            lastBlock[entry] = block;
            reference[block];
        } else if (entry && kind == 0) {
            const int id = next_id++;
            entry->targets.push_back(
                [&fired, id](Tick) { fired.push_back(id); });
            it->second.targets.push_back(id);
            if (rng.chance(0.5)) {
                entry->demand = true;
                it->second.demand = true;
            }
        } else if (entry && kind == 1) {
            const auto done = mshrs.release(block);
            EXPECT_EQ(&*done, entry);
            EXPECT_EQ(done->demand, it->second.demand);
            fired.clear();
            for (const MissTarget &target : done->targets)
                target(static_cast<Tick>(step));
            EXPECT_EQ(fired, it->second.targets) << "step " << step;
            capacityAtRelease[entry] = done->targets.capacity();
            reference.erase(it);
            EXPECT_EQ(mshrs.find(block), nullptr);
        }
        ASSERT_EQ(mshrs.inUse(), reference.size());
        std::uint32_t demand = 0;
        for (const auto &[addr, tracked] : reference)
            demand += tracked.demand ? 1 : 0;
        ASSERT_EQ(mshrs.demandOutstanding(), demand) << "step " << step;
    }
    for (const auto &[addr, tracked] : reference) {
        const MshrEntry *entry = mshrs.find(addr);
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry->targets.size(), tracked.targets.size());
    }
    EXPECT_GT(reuses, 1000);
    EXPECT_GT(next_id, 1000);
}

TEST(MshrTest, DuplicateAllocationDies)
{
    MshrFile mshrs("t", 4);
    mshrs.allocate(0x100, 0);
    EXPECT_DEATH(mshrs.allocate(0x100, 0), "duplicate");
}

TEST(MshrTest, AllocateWhileReleasedEntryIsHeldDies)
{
    // The freed entry is the lowest free one, so an allocation while
    // its targets run would reuse it and clear the list being walked.
    MshrFile mshrs("t", 2);
    mshrs.allocate(0x100, 0)->targets.push_back([](Tick) {});
    EXPECT_DEATH(
        {
            const auto done = mshrs.release(0x100);
            mshrs.allocate(0x200, 1);
        },
        "draining");

    // Once the handle is gone the file allocates, the freed entry
    // first.
    MshrEntry *freed = mshrs.find(0x100);
    mshrs.release(0x100);
    EXPECT_EQ(mshrs.allocate(0x200, 1), freed);
}

TEST(MshrTest, ReleaseUntrackedDies)
{
    MshrFile mshrs("t", 4);
    EXPECT_DEATH(mshrs.release(0x999), "untracked");
}

} // namespace
} // namespace vsv
