/**
 * @file
 * Set-associative, write-back, write-allocate cache tag array with
 * true-LRU replacement. Timing lives in MemoryHierarchy; this class
 * models only presence, dirtiness and replacement so it can be unit-
 * tested in isolation. Defaults follow the paper's Table 1.
 */

#ifndef VSV_CACHE_CACHE_HH
#define VSV_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "stats/stats.hh"

namespace vsv
{

class SnapshotReader;
class SnapshotWriter;

/** Static geometry/latency parameters of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t blockBytes = 32;
    std::uint32_t hitLatency = 2;  ///< pipeline cycles (L1) or ticks (L2)
};

/** Result of a lookup. */
struct CacheAccessResult
{
    bool hit = false;
};

/** Victim block produced by a fill. */
struct CacheVictim
{
    bool valid = false;   ///< a block was evicted
    Addr blockAddr = 0;   ///< its block-aligned address
    bool dirty = false;   ///< it needs writing back
};

/** One cache level's tag array. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up addr, updating LRU on hit and setting the dirty bit for
     * writes that hit. Inline: every simulated access starts here.
     */
    CacheAccessResult
    access(Addr addr, bool is_write)
    {
        const std::size_t line = findLine(addr);
        if (line != noLine) {
            stamps[line] = ++stamp;
            if (is_write) {
                if (!dirty[line])
                    ++writebackSets;
                dirty[line] = true;
            }
            ++hits_;
            return {true};
        }
        ++misses_;
        return {false};
    }

    /**
     * `count` access(addr, false) calls in one step: on a hit the
     * block's stamp and the hit count advance by `count`, on a miss
     * the miss count does. Exact, because repeated lookups of one
     * block change nothing else.
     */
    CacheAccessResult
    readRepeated(Addr addr, std::uint64_t count)
    {
        const std::size_t line = findLine(addr);
        if (line != noLine) {
            stamp += count;
            stamps[line] = stamp;
            hits_ += static_cast<double>(count);
            return {true};
        }
        misses_ += static_cast<double>(count);
        return {false};
    }

    /** Presence test with no LRU or stat side effects. */
    bool probe(Addr addr) const;

    /**
     * Install the block holding addr, evicting the LRU way if needed.
     * @param is_dirty install in dirty state (write-allocate store fill)
     */
    CacheVictim fill(Addr addr, bool is_dirty);

    /** Invalidate the block holding addr, if present. */
    void invalidate(Addr addr);

    /** Block-align an address. */
    Addr blockAlign(Addr addr) const { return addr & ~blockMask; }

    /** Set index for an address (exposed for per-set TK history). */
    std::uint32_t
    setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr >> blockShift) & setMask);
    }

    std::uint32_t numSets() const { return numSets_; }
    const CacheConfig &config() const { return config_; }

    void regStats(StatRegistry &registry, const std::string &prefix) const;

    /** Serialize tags, LRU state, dirty bits and stats. */
    void snapshot(SnapshotWriter &writer) const;

    /**
     * Restore state saved by snapshot(); the geometry must match.
     * Throws SnapshotError on a line fill() and invalidate() could not
     * have left: a valid flag that disagrees with the tag, an invalid
     * line that is dirty or stamped, a valid line stamped outside
     * [1, cache stamp] or tagged for another set, or a tag twice in
     * one set.
     */
    void restore(SnapshotReader &reader);

    std::uint64_t hits() const
    {
        return static_cast<std::uint64_t>(hits_.value());
    }
    std::uint64_t misses() const
    {
        return static_cast<std::uint64_t>(misses_.value());
    }

  private:
    /** findLine()'s "no such line". */
    static constexpr std::size_t noLine = ~std::size_t{0};

    /** Index of the line holding addr's block, or noLine. */
    std::size_t
    findLine(Addr addr) const
    {
        // Which way holds a block is data, not a pattern a branch
        // predictor learns: visit every way, selecting rather than
        // branching, from the last to the first so that the first
        // match wins. An invalid line's tag is invalidAddr, which no
        // shifted address equals, so one compare per way suffices.
        const Addr tag = addr >> blockShift;
        const std::size_t base =
            static_cast<std::size_t>(setIndex(addr)) * config_.assoc;
        std::size_t found = noLine;
        for (std::uint32_t way = config_.assoc; way-- > 0;)
            found = tags[base + way] == tag ? base + way : found;
        return found;
    }

    CacheConfig config_;
    std::uint32_t numSets_;
    Addr blockMask;
    std::uint32_t blockShift;  ///< log2(blockBytes)
    Addr setMask;              ///< numSets - 1
    /**
     * Line state in three parallel arrays, indexed set * assoc + way,
     * so a lookup reads only the set's tags: an 8-way set of 8-byte
     * tags fills one 64-byte host line.
     *
     * tags: block address pre-shifted by blockShift (the whole upper
     * address, so no separate index check is needed); invalidAddr for
     * an invalid line.
     * stamps: LRU stamp; 0 for invalid lines (valid stamps start at
     * 1), making the victim scan a branch-free min over the set.
     * dirty: nonzero for a dirty line; invalid lines are clean.
     */
    std::vector<Addr> tags;
    std::vector<std::uint64_t> stamps;
    std::vector<std::uint8_t> dirty;
    std::uint64_t stamp = 0;

    Scalar hits_;
    Scalar misses_;
    Scalar evictions;
    Scalar dirtyEvictions;
    Scalar writebackSets;  ///< dirty bits set by write hits
};

} // namespace vsv

#endif // VSV_CACHE_CACHE_HH
