/**
 * @file
 * Miss Status Holding Register file.
 *
 * One MSHR entry tracks one outstanding block miss; subsequent misses
 * to the same block merge as extra targets instead of issuing another
 * request downstream. A full MSHR file back-pressures the requester
 * (the LSQ re-issues, fetch stalls). Sizes follow Table 1: 32 for each
 * L1 and 64 for the L2.
 */

#ifndef VSV_CACHE_MSHR_HH
#define VSV_CACHE_MSHR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "stats/stats.hh"

namespace vsv
{

class SnapshotReader;
class SnapshotWriter;

/** Callback invoked when the missing block arrives. */
using MissTarget = std::function<void(Tick)>;

/** One outstanding miss. */
struct MshrEntry
{
    bool valid = false;
    Addr blockAddr = 0;
    bool isWrite = false;       ///< any merged target is a store
    bool demand = false;        ///< any merged target is a demand access
    Tick allocated = 0;
    std::vector<MissTarget> targets;
};

/** A fixed-capacity file of MshrEntry. */
class MshrFile
{
  public:
    MshrFile(std::string name, std::uint32_t entries);

    /** Find the entry tracking block_addr, or nullptr. */
    MshrEntry *find(Addr block_addr);
    const MshrEntry *find(Addr block_addr) const;

    /**
     * Allocate an entry for block_addr (must not already exist).
     * @return nullptr when the file is full.
     */
    MshrEntry *allocate(Addr block_addr, Tick now);

    /**
     * Release the entry for block_addr and return a copy of it (flags
     * plus the merged targets). Panics if no such entry exists.
     */
    MshrEntry release(Addr block_addr);

    bool full() const { return used >= capacity; }
    std::uint32_t inUse() const { return used; }

    /** Number of valid entries holding at least one demand target. */
    std::uint32_t demandOutstanding() const;

    void regStats(StatRegistry &registry, const std::string &prefix) const;

    /**
     * Serialize stats. MissTarget callbacks are not serializable, so
     * this panics unless the file is drained (used == 0) — always true
     * at the post-warmup snapshot point, where the hierarchy is
     * quiescent.
     */
    void snapshot(SnapshotWriter &writer) const;

    /** Restore state saved by snapshot(); the file must be drained. */
    void restore(SnapshotReader &reader);

  private:
    std::string name;
    std::uint32_t capacity;
    std::uint32_t used = 0;
    std::vector<MshrEntry> entries;

    Scalar allocations;
    Scalar merges;
    Scalar fullStalls;

  public:
    /** Record that an allocation failed because the file was full. */
    void noteFullStall() { ++fullStalls; }

    /** Record a miss merged into an existing entry. */
    void noteMerge() { ++merges; }
};

} // namespace vsv

#endif // VSV_CACHE_MSHR_HH
