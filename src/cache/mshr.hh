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
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hh"
#include "stats/stats.hh"

namespace vsv
{

class SnapshotReader;
class SnapshotWriter;

/**
 * Callback invoked (with the fill tick) when a missing block arrives.
 *
 * A small inline callable, not a std::function: every miss path
 * closure captures a pointer and at most two words, so it is stored
 * in place in a fixed buffer next to one invoke pointer. Copies are
 * plain byte copies, so MSHR target lists and event nodes move it
 * around for free. Only trivially copyable callables of at most
 * `capacity` bytes are accepted, checked at compile time.
 */
class MissTarget
{
  public:
    /** Bytes of captured state a target can hold. */
    static constexpr std::size_t capacity = 24;

    /** An empty target (tests false; must not be invoked). */
    MissTarget() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, MissTarget> &&
                  std::is_invocable_v<const std::decay_t<F> &, Tick>>>
    MissTarget(F &&fn)  // implicit, like std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= capacity,
                      "miss target captures too much state");
        static_assert(alignof(Fn) <= alignof(std::uint64_t),
                      "miss target over-aligned");
        static_assert(std::is_trivially_copyable_v<Fn> &&
                          std::is_trivially_destructible_v<Fn>,
                      "miss target must be trivially copyable");
        ::new (static_cast<void *>(storage)) Fn(std::forward<F>(fn));
        invoke_ = &invokeAs<Fn>;
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    void operator()(Tick when) const { invoke_(storage, when); }

  private:
    template <typename Fn>
    static void
    invokeAs(const unsigned char *storage, Tick when)
    {
        (*std::launder(reinterpret_cast<const Fn *>(storage)))(when);
    }

    alignas(std::uint64_t) unsigned char storage[capacity] = {};
    void (*invoke_)(const unsigned char *, Tick) = nullptr;
};

static_assert(sizeof(MissTarget) == MissTarget::capacity + sizeof(void *),
              "MissTarget is its buffer plus one invoke pointer");
static_assert(std::is_trivially_copyable_v<MissTarget>,
              "MissTarget copies must be byte copies");

/** One outstanding miss's flags and merged targets. */
struct MshrEntry
{
    bool isWrite = false;       ///< any merged target is a store
    bool demand = false;        ///< any merged target is a demand access
    Tick allocated = 0;
    std::vector<MissTarget> targets;
};

/**
 * A fixed-capacity file of MshrEntry. The block addresses live in
 * their own dense array, invalidAddr marking a free entry, so a
 * lookup scans one contiguous run of words, and only up to the
 * highest entry in use.
 */
class MshrFile
{
  public:
    MshrFile(std::string name, std::uint32_t entries);

    /** Find the entry tracking block_addr (never invalidAddr), or
     *  nullptr. */
    MshrEntry *
    find(Addr block_addr)
    {
        for (std::uint32_t i = 0; i < highWater; ++i) {
            if (blockAddrs[i] == block_addr)
                return &entries[i];
        }
        return nullptr;
    }

    const MshrEntry *
    find(Addr block_addr) const
    {
        return const_cast<MshrFile *>(this)->find(block_addr);
    }

    /**
     * Allocate an entry for block_addr (must not already exist), with
     * its flags cleared and no targets.
     * @return nullptr when the file is full.
     */
    MshrEntry *allocate(Addr block_addr, Tick now);

    /**
     * The entry release() freed. Its flags and merged targets stay
     * readable while this handle lives, and allocate() on the file
     * panics until then: the next allocation may reuse the entry and
     * its target list (capacity and all), which would pull the list
     * out from under a caller still running the targets.
     */
    class Released
    {
      public:
        Released(const Released &) = delete;
        Released &operator=(const Released &) = delete;
        ~Released() { --file.draining; }

        const MshrEntry &operator*() const { return entry; }
        const MshrEntry *operator->() const { return &entry; }

      private:
        friend class MshrFile;
        Released(MshrFile &file, const MshrEntry &entry)
            : file(file), entry(entry)
        {
            ++file.draining;
        }

        MshrFile &file;
        const MshrEntry &entry;
    };

    /** Release the entry for block_addr and return a handle to it.
     *  Panics if no such entry exists. */
    Released release(Addr block_addr);

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

    /** Record that an allocation failed because the file was full. */
    void noteFullStall() { ++fullStalls; }

    /** Record a miss merged into an existing entry. */
    void noteMerge() { ++merges; }

  private:
    std::string name;
    std::uint32_t capacity;
    std::uint32_t used = 0;
    /** Released handles alive; allocate() requires none. */
    std::uint32_t draining = 0;
    /** One past the highest entry in use; find() scans below it. */
    std::uint32_t highWater = 0;
    /** Per entry: the block it tracks, or invalidAddr when free. */
    std::vector<Addr> blockAddrs;
    std::vector<MshrEntry> entries;

    Scalar allocations;
    Scalar merges;
    Scalar fullStalls;
};

} // namespace vsv

#endif // VSV_CACHE_MSHR_HH
