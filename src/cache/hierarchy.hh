/**
 * @file
 * The full memory hierarchy: L1 I/D caches, unified L2, MSHR files,
 * the split-transaction memory bus and DRAM, wired together on the
 * full-speed tick timebase with an event queue.
 *
 * Responsibilities beyond plain timing:
 *
 *  - VSV triggers. A *demand* L2 miss is reported to the registered
 *    MissListener only after the L2 hit latency has elapsed (the
 *    paper's conservative miss-detection assumption); the data return
 *    is reported when the fill completes, together with the number of
 *    still-outstanding demand misses. Prefetch-caused L2 misses are
 *    never reported (Section 4.2).
 *
 *  - Prefetch hooks. An abstract Prefetcher observes L1D activity
 *    (accesses, fills, evictions) and can issue L2/memory prefetches
 *    through the PrefetchIssuer interface; hardware-prefetched data is
 *    placed in the L2 and in the prefetcher's buffer, which is probed
 *    on L1D misses (Time-Keeping prefetching, Section 5.1).
 *
 *  - Power. Every array access is charged to the PowerModel; the
 *    level-converter latches on the pipeline->RAM paths are charged
 *    per L1 access (Section 3.6).
 */

#ifndef VSV_CACHE_HIERARCHY_HH
#define VSV_CACHE_HIERARCHY_HH

#include <cstdint>
#include <string>

#include "cache/bus.hh"
#include "cache/cache.hh"
#include "cache/dram.hh"
#include "cache/mshr.hh"
#include "common/eventq.hh"
#include "common/types.hh"
#include "power/model.hh"
#include "stats/stats.hh"
#include "trace/sink.hh"

namespace vsv
{

/** Receives the VSV trigger events (implemented by the controller). */
class MissListener
{
  public:
    virtual ~MissListener() = default;

    /**
     * A demand L2 miss was detected (L2 hit latency after access).
     * @param outstanding demand L2 misses in flight, including this
     *        one. The hierarchy's count is authoritative: demand
     *        escalations of prefetched blocks produce a return with
     *        no matching detection, so listeners must not keep a
     *        local count.
     */
    virtual void demandL2MissDetected(Tick when,
                                      std::uint32_t outstanding) = 0;

    /**
     * A demand L2 miss's data returned.
     * @param outstanding demand L2 misses still in flight afterwards
     */
    virtual void demandL2MissReturned(Tick when,
                                      std::uint32_t outstanding) = 0;
};

/** Lets a prefetch engine inject requests into the hierarchy. */
class PrefetchIssuer
{
  public:
    virtual ~PrefetchIssuer() = default;

    /**
     * Fetch the L2 block containing addr into the L2 and, on arrival,
     * into the prefetch engine's buffer. No-op if already resident or
     * in flight.
     */
    virtual void issueHardwarePrefetch(Addr addr, Tick now) = 0;
};

/** Observation hooks for a hardware prefetch engine. */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /** Wire up the request path; called once by the hierarchy. */
    virtual void setIssuer(PrefetchIssuer *issuer) = 0;

    /** A demand L1D access to `addr` hit/missed at tick `now`. */
    virtual void notifyL1DAccess(Addr addr, bool hit, Tick now) = 0;

    /**
     * `block_addr` was filled into the L1D, evicting `victim_block`
     * (invalidAddr when the frame was empty). The (victim, fill) pair
     * is exactly the frame-successor correlation Time-Keeping trains
     * on.
     */
    virtual void notifyL1DFill(Addr block_addr, Addr victim_block,
                               Tick now) = 0;

    /**
     * Probe the prefetch buffer for the L1 block holding addr; a hit
     * consumes the entry (the block moves into the L1D).
     */
    virtual bool probeBuffer(Addr addr, Tick now) = 0;

    /** A hardware prefetch for block_addr returned from memory. */
    virtual void fillBuffer(Addr block_addr, Tick now) = 0;
};

/** Geometry/latency knobs (defaults = Table 1). */
struct HierarchyConfig
{
    CacheConfig l1i{"l1i", 64 * 1024, 2, 32, 2};
    CacheConfig l1d{"l1d", 64 * 1024, 2, 32, 2};
    CacheConfig l2{"l2", 2 * 1024 * 1024, 8, 64, 12};
    std::uint32_t l1iMshrs = 32;
    std::uint32_t l1dMshrs = 32;
    std::uint32_t l2Mshrs = 64;
    std::uint32_t prefetchBufferLatency = 2;
    /**
     * Ticks from an L2 access to the miss being *reported* to the
     * VSV controller. 0 = the paper's conservative assumption (equal
     * to the L2 hit latency); smaller values model an early
     * miss-detection circuit - see bench/ablation_vsv.
     */
    std::uint32_t l2MissDetectTicks = 0;
    BusConfig bus{};
    DramConfig dram{};
};

/** Outcome of a CPU-initiated access. */
struct MemAccessOutcome
{
    /** False when an MSHR was unavailable: retry next cycle. */
    bool accepted = true;
    /**
     * True when the access completes after a fixed pipeline-cycle
     * latency (L1 or prefetch-buffer hit); the caller schedules its
     * own wakeup `latencyCycles` pipeline cycles ahead. Otherwise the
     * completion callback fires from the event queue.
     */
    bool immediate = false;
    std::uint32_t latencyCycles = 0;
};

/** The hierarchy itself. */
class MemoryHierarchy : public PrefetchIssuer
{
  public:
    MemoryHierarchy(const HierarchyConfig &config, PowerModel &power);

    /** Optional wiring of the VSV trigger events. */
    void setMissListener(MissListener *listener) { listener_ = listener; }
    void setPrefetcher(Prefetcher *engine);
    /** Attach an event sink (nullptr = tracing off, the default). */
    void setTraceSink(TraceSink *sink) { trace = sink; }

    /**
     * Data-side access from the LSQ (or a software prefetch).
     *
     * @param on_complete invoked (with the completion tick) for
     *        non-immediate loads; may be empty for stores/prefetches
     */
    MemAccessOutcome dataAccess(Addr addr, bool is_write, bool is_prefetch,
                                Tick now, MissTarget on_complete);

    /** Instruction-side access from fetch. */
    MemAccessOutcome instFetch(Addr pc, Tick now, MissTarget on_complete);

    /** PrefetchIssuer interface (Time-Keeping engine requests). */
    void issueHardwarePrefetch(Addr addr, Tick now) override;

    /**
     * Functional (timing-free) accesses for the fast-forward warmup
     * phase, mirroring the paper's cache warmup during fast-forward:
     * tags, replacement state and the prefetch engine are exercised,
     * but no events, MSHRs, bus slots or VSV triggers are generated.
     * While warmupMode() is on, hardware prefetches also complete
     * functionally. The L1 hit paths are inline: warmup streams
     * hundreds of thousands of instructions through them per run.
     */
    void
    warmupInstAccess(Addr pc, Tick now)
    {
        if (!l1i.access(pc, false).hit)
            warmupInstMiss(pc, now);
    }

    /**
     * `count` more warmupInstAccess(pc) calls right after one: the
     * first left pc's block in the L1I, so the rest are hits, and
     * nothing else reads or changes the L1I in between.
     */
    void
    warmupInstRepeats(Addr pc, std::uint64_t count)
    {
        l1i.readRepeated(pc, count);
    }

    void
    warmupDataAccess(Addr addr, bool is_write, Tick now)
    {
        const bool hit = l1d.access(addr, is_write).hit;
        if (prefetcher)
            prefetcher->notifyL1DAccess(addr, hit, now);
        if (!hit)
            warmupDataMiss(addr, is_write, now);
    }

    void setWarmupMode(bool on) { warmupMode_ = on; }
    bool warmupMode() const { return warmupMode_; }

    /** Run all memory-side events scheduled up to and including now. */
    void service(Tick now) { events.serviceUntil(now); }

    /** Earliest pending memory event (for fast-forward loops). */
    Tick nextEventTick() const { return events.nextEventTick(); }

    /** True when no miss is in flight anywhere. */
    bool quiescent() const;

    /** Demand L2 misses observed so far (the paper's MR numerator). */
    std::uint64_t demandL2MissCount() const
    {
        return static_cast<std::uint64_t>(demandL2Misses.value());
    }

    const Cache &l1iCache() const { return l1i; }
    const Cache &l1dCache() const { return l1d; }
    const Cache &l2Cache() const { return l2; }
    const HierarchyConfig &config() const { return config_; }

    void regStats(StatRegistry &registry, const std::string &prefix) const;

    /**
     * Serialize every warmup-mutable piece of the hierarchy: all three
     * tag arrays, MSHR stat counters, bus horizon, DRAM stats and the
     * hierarchy-level scalars. The hierarchy must be quiescent() —
     * always true right after functional warmup, which generates no
     * events or MSHR traffic.
     */
    void snapshot(SnapshotWriter &writer) const;

    /** Restore state saved by snapshot(); geometry must match. */
    void restore(SnapshotReader &reader);

  private:
    /** Which L1 a request entered through. */
    enum class Side : std::uint8_t { Inst, Data };

    /**
     * Request an L2 block. Handles MSHR merging, the demand-miss
     * detection event, bus/DRAM scheduling and the L2 fill;
     * `on_filled` runs once the block is in the L2 (or immediately
     * after the hit latency on an L2 hit).
     */
    void requestFromL2(Addr l2_block, bool demand, bool is_write,
                       Tick now, MissTarget on_filled);

    /** The memory trip for one L2 MSHR entry. */
    void startMemoryTrip(Addr l2_block, Tick when);

    /** The L1 miss halves of warmupInstAccess/warmupDataAccess. */
    void warmupInstMiss(Addr pc, Tick now);
    void warmupDataMiss(Addr addr, bool is_write, Tick now);

    /** Fill an L1 and handle its victim. */
    void fillL1(Side side, Addr l1_block, bool dirty, Tick now);

    /** Handle a miss in an L1 (shared by inst/data paths). */
    MemAccessOutcome l1MissPath(Side side, Addr addr, bool is_write,
                                bool is_prefetch, Tick now,
                                MissTarget on_complete);

    HierarchyConfig config_;
    PowerModel &power;

    Cache l1i;
    Cache l1d;
    Cache l2;
    MshrFile l1iMshrs;
    MshrFile l1dMshrs;
    MshrFile l2Mshrs;
    MemoryBus bus;
    Dram dram;
    EventQueue events;

    MissListener *listener_ = nullptr;
    Prefetcher *prefetcher = nullptr;
    TraceSink *trace = nullptr;
    bool warmupMode_ = false;

    Scalar demandL2Misses;
    Scalar prefetchL2Misses;
    Scalar bufferHits;
    Scalar writebacksToL2;
    Scalar writebacksToMemory;
};

} // namespace vsv

#endif // VSV_CACHE_HIERARCHY_HH
