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
        Line *line = findLine(addr);
        if (line) {
            line->lruStamp = ++stamp;
            if (is_write) {
                if (!line->dirty)
                    ++writebackSets;
                line->dirty = true;
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
        Line *line = findLine(addr);
        if (line) {
            stamp += count;
            line->lruStamp = stamp;
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
     * @param dirty install in dirty state (write-allocate store fill)
     */
    CacheVictim fill(Addr addr, bool dirty);

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

    /** Restore state saved by snapshot(); the geometry must match. */
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
    struct Line
    {
        /** Block address pre-shifted by blockShift (whole upper
         *  address, so no separate index check is needed). */
        Addr tag = invalidAddr;
        bool valid = false;
        bool dirty = false;
        /** 0 for invalid lines (valid stamps start at 1), making the
         *  victim scan a branch-free min over the set. */
        std::uint64_t lruStamp = 0;
    };

    Line *
    findLine(Addr addr)
    {
        // Which way holds a block is data, not a pattern a branch
        // predictor learns: visit every way, selecting rather than
        // branching, from the last to the first so that the first
        // match wins.
        const Addr tag = addr >> blockShift;
        Line *base = &lines[static_cast<std::size_t>(setIndex(addr)) *
                            config_.assoc];
        Line *found = nullptr;
        for (std::uint32_t way = config_.assoc; way-- > 0;) {
            const bool match = base[way].valid && base[way].tag == tag;
            found = match ? &base[way] : found;
        }
        return found;
    }

    const Line *
    findLine(Addr addr) const
    {
        return const_cast<Cache *>(this)->findLine(addr);
    }

    CacheConfig config_;
    std::uint32_t numSets_;
    Addr blockMask;
    std::uint32_t blockShift;  ///< log2(blockBytes)
    Addr setMask;              ///< numSets - 1
    std::vector<Line> lines;
    std::uint64_t stamp = 0;

    Scalar hits_;
    Scalar misses_;
    Scalar evictions;
    Scalar dirtyEvictions;
    Scalar writebackSets;  ///< dirty bits set by write hits
};

} // namespace vsv

#endif // VSV_CACHE_CACHE_HH
