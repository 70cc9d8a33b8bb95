/**
 * @file
 * Property tests of the cache tag array against a reference model:
 * for a randomized access/fill stream, the cache must agree with an
 * exact software LRU model, across a sweep of geometries.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <memory>
#include <tuple>

#include "cache/cache.hh"
#include "common/random.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{
namespace
{

/** Exact reference: per-set LRU list of block addresses. */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint32_t sets, std::uint32_t assoc,
                 std::uint32_t block)
        : numSets(sets), assoc(assoc), blockBytes(block), sets_(sets)
    {
    }

    bool
    access(Addr addr)
    {
        auto &set = sets_[setOf(addr)];
        const Addr block = align(addr);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == block) {
                set.erase(it);
                set.push_front(block);  // MRU
                return true;
            }
        }
        return false;
    }

    /** Returns the evicted block or invalidAddr. */
    Addr
    fill(Addr addr)
    {
        auto &set = sets_[setOf(addr)];
        const Addr block = align(addr);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == block) {
                set.erase(it);
                set.push_front(block);
                return invalidAddr;
            }
        }
        Addr victim = invalidAddr;
        if (set.size() >= assoc) {
            victim = set.back();
            set.pop_back();
        }
        set.push_front(block);
        return victim;
    }

  private:
    Addr align(Addr addr) const { return addr & ~Addr{blockBytes - 1}; }
    std::uint32_t
    setOf(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr / blockBytes) &
                                          (numSets - 1));
    }

    std::uint32_t numSets;
    std::uint32_t assoc;
    std::uint32_t blockBytes;
    std::vector<std::list<Addr>> sets_;
};

/**
 * The LRU reference plus dirty bits, hit/miss counts, invalidation and
 * repeated reads: everything Cache's public interface can observe.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint32_t sets, std::uint32_t assoc,
                   std::uint32_t block)
        : numSets(sets), assoc(assoc), blockBytes(block), sets_(sets)
    {
    }

    /** access() or readRepeated(): `count` lookups of one block. */
    bool
    access(Addr addr, bool is_write, std::uint64_t count = 1)
    {
        auto &set = sets_[setOf(addr)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->block == align(addr)) {
                Line line = *it;
                line.dirty = line.dirty || is_write;
                set.erase(it);
                set.push_front(line);  // MRU
                hits += count;
                return true;
            }
        }
        misses += count;
        return false;
    }

    /** The evicted line, block invalidAddr when none. */
    struct Line
    {
        Addr block = invalidAddr;
        bool dirty = false;
    };

    Line
    fill(Addr addr, bool dirty)
    {
        auto &set = sets_[setOf(addr)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->block == align(addr)) {
                Line line = *it;
                line.dirty = line.dirty || dirty;
                set.erase(it);
                set.push_front(line);
                return {};
            }
        }
        Line victim;
        if (set.size() >= assoc) {
            victim = set.back();
            set.pop_back();
        }
        set.push_front({align(addr), dirty});
        return victim;
    }

    void
    invalidate(Addr addr)
    {
        auto &set = sets_[setOf(addr)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->block == align(addr)) {
                set.erase(it);
                return;
            }
        }
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    Addr align(Addr addr) const { return addr & ~Addr{blockBytes - 1}; }
    std::uint32_t
    setOf(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr / blockBytes) &
                                          (numSets - 1));
    }

    std::uint32_t numSets;
    std::uint32_t assoc;
    std::uint32_t blockBytes;
    std::vector<std::list<Line>> sets_;
};

/** The bytes of `cache`'s snapshot section. */
std::string
snapshotBytes(const Cache &cache)
{
    SnapshotWriter writer("prop");
    cache.snapshot(writer);
    return std::string(writer.finish().view());
}

using Geometry = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>;

class CachePropertyTest : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CachePropertyTest, AgreesWithReferenceLruModel)
{
    const auto [size, assoc, block] = GetParam();
    CacheConfig config{"prop", size, assoc, block, 1};
    Cache cache(config);
    ReferenceLru ref(cache.numSets(), assoc, block);
    Rng rng(size * 31 + assoc * 7 + block);

    // Confined address space so sets collide heavily.
    const Addr space = 4 * size;
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.nextBounded(space);
        if (rng.chance(0.6)) {
            const bool hit = cache.access(addr, false).hit;
            EXPECT_EQ(hit, ref.access(addr)) << "step " << i;
        } else {
            const CacheVictim victim = cache.fill(addr, false);
            const Addr ref_victim = ref.fill(addr);
            if (ref_victim == invalidAddr) {
                EXPECT_FALSE(victim.valid) << "step " << i;
            } else {
                ASSERT_TRUE(victim.valid) << "step " << i;
                EXPECT_EQ(victim.blockAddr, ref_victim) << "step " << i;
            }
        }
    }
}

TEST_P(CachePropertyTest, EveryOperationAgreesAcrossSnapshotRestores)
{
    const auto [size, assoc, block] = GetParam();
    const CacheConfig config{"prop", size, assoc, block, 1};
    auto cache = std::make_unique<Cache>(config);
    ReferenceCache ref(cache->numSets(), assoc, block);
    Rng rng(size * 13 + assoc * 5 + block + 1);

    const Addr space = 4 * size;
    int restores = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.nextBounded(space);
        const std::uint64_t kind = rng.nextBounded(100);
        if (kind < 35) {
            const bool is_write = rng.chance(0.3);
            EXPECT_EQ(cache->access(addr, is_write).hit,
                      ref.access(addr, is_write))
                << "step " << i;
        } else if (kind < 45) {
            const std::uint64_t count = 1 + rng.nextBounded(20);
            EXPECT_EQ(cache->readRepeated(addr, count).hit,
                      ref.access(addr, false, count))
                << "step " << i;
        } else if (kind < 85) {
            const bool dirty = rng.chance(0.3);
            const CacheVictim victim = cache->fill(addr, dirty);
            const ReferenceCache::Line ref_victim = ref.fill(addr, dirty);
            ASSERT_EQ(victim.valid, ref_victim.block != invalidAddr)
                << "step " << i;
            if (victim.valid) {
                EXPECT_EQ(victim.blockAddr, ref_victim.block) << "step " << i;
                EXPECT_EQ(victim.dirty, ref_victim.dirty) << "step " << i;
            }
        } else if (kind < 97) {
            cache->invalidate(addr);
            ref.invalidate(addr);
            EXPECT_FALSE(cache->probe(addr)) << "step " << i;
        } else {
            // Snapshot, restore into a fresh cache, snapshot again: the
            // bytes match, and the stream goes on in the restored one.
            const std::string bytes = snapshotBytes(*cache);
            auto restored = std::make_unique<Cache>(config);
            SnapshotReader reader(bytes);
            restored->restore(reader);
            ASSERT_EQ(snapshotBytes(*restored), bytes) << "step " << i;
            cache = std::move(restored);
            ++restores;
        }
        ASSERT_EQ(cache->hits(), ref.hits) << "step " << i;
        ASSERT_EQ(cache->misses(), ref.misses) << "step " << i;
    }
    EXPECT_GT(restores, 100);
}

TEST_P(CachePropertyTest, ProbeNeverLies)
{
    const auto [size, assoc, block] = GetParam();
    Cache cache(CacheConfig{"prop", size, assoc, block, 1});
    Rng rng(size + assoc + block);

    const Addr space = 2 * size;
    for (int i = 0; i < 5000; ++i) {
        const Addr addr = rng.nextBounded(space);
        cache.fill(addr, false);
        EXPECT_TRUE(cache.probe(addr));
        // probe == access-hit (modulo LRU side effects).
        const Addr other = rng.nextBounded(space);
        const bool probed = cache.probe(other);
        EXPECT_EQ(cache.access(other, false).hit, probed);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CachePropertyTest,
    ::testing::Values(Geometry{256, 1, 32},       // direct-mapped
                      Geometry{256, 2, 32},
                      Geometry{1024, 4, 32},
                      Geometry{4096, 8, 64},      // L2-like shape
                      Geometry{512, 16, 32},      // high associativity
                      Geometry{64 * 1024, 2, 32}  // the Table 1 L1
                      ));

} // namespace
} // namespace vsv
