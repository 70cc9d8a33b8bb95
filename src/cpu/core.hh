/**
 * @file
 * Trace-driven, 8-way out-of-order superscalar core in the
 * sim-outorder (RUU/LSQ) tradition, configured per the paper's
 * Table 1.
 *
 * Pipeline model, executed once per *pipeline cycle* (the VSV
 * controller decides which global ticks carry a pipeline clock edge):
 *
 *   commit   - in-order retire of completed RUU entries (8/cycle);
 *              stores perform their D-cache write here (write-buffer
 *              semantics: commit only needs the access *accepted*)
 *   complete - ops whose completion cycle is due come off the
 *              completion wheel and wake their dependents; branches
 *              then resolve in sequence order (train the predictor,
 *              start the 8-cycle misprediction recovery clock)
 *   issue    - oldest-first select from the ready set onto free
 *              functional units (8/cycle); loads probe the LSQ for
 *              store forwarding, then access the D-cache through a
 *              limited number of ports; MSHR-full rejections retry
 *   dispatch - in-order move from the fetch queue into RUU + LSQ,
 *              resolving producer distances to sequence numbers and
 *              linking each op to its in-flight producers
 *   fetch    - up to 8 ops/cycle from the trace through the L1I;
 *              fetch stops at a branch the predictor (checked against
 *              the trace outcome) would mispredict, and resumes a
 *              fixed penalty after that branch resolves - the classic
 *              trace-driven stall model of wrong-path fetch
 *
 * Every in-flight op, fetched or dispatched, lives in slot
 * seq & (ring size - 1) of one power-of-two ring: the trace op is
 * copied there once at fetch, and its class is decoded there once into
 * the slot's RUU entry, which every later stage reads.
 *
 * The window is event-driven, as in sim-outorder's ready queue and
 * event queue: no stage scans the RUU. A bitset over RUU slots holds
 * exactly the Dispatched entries whose producers are done; an op with
 * an in-flight producer sits on that producer's intrusive consumer
 * list until the producer completes (from the completion wheel, or
 * when its load returns from memory) and counts its operands down to
 * ready.
 *
 * The completion wheel has one slot per pipeline cycle, a power of
 * two sized at construction above the longest latency an issued op
 * can be scheduled with (the slowest functional unit plus the slowest
 * immediate memory hit), so every known completion cycle lands in its
 * own slot and no completion overflows. A bitmask of non-empty slots
 * gives cyclesUntilProgress() the earliest completion cycle.
 *
 * Memory disambiguation is optimistic (loads wait only for earlier
 * stores to the same 8-byte word; unknown store addresses are assumed
 * non-aliasing), which sim-outorder calls perfect disambiguation. A
 * counting filter over the address-ready stores in the LSQ, bucketed
 * by word address, lets most loads skip the LSQ walk: an empty bucket
 * proves no store can forward.
 *
 * Every structure access is charged to the PowerModel, giving the
 * per-cycle activity that deterministic clock gating and VSV act on.
 */

#ifndef VSV_CPU_CORE_HH
#define VSV_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "isa/funcunits.hh"
#include "isa/microop.hh"
#include "power/model.hh"
#include "stats/stats.hh"
#include "workload/workload.hh"

namespace vsv
{

/** Core configuration (defaults = Table 1). */
struct CoreConfig
{
    std::uint32_t fetchWidth = 8;
    std::uint32_t dispatchWidth = 8;
    std::uint32_t issueWidth = 8;
    std::uint32_t commitWidth = 8;
    std::uint32_t ruuSize = 128;
    std::uint32_t lsqSize = 64;
    std::uint32_t fetchQueueSize = 16;
    std::uint32_t mispredictPenalty = 8;
    std::uint32_t dcachePorts = 4;
    FuPoolSizes fuPools{};
};

/** The core. */
class Core
{
  public:
    Core(const CoreConfig &config, TraceSource &workload,
         MemoryHierarchy &memory, BranchPredictor &predictor,
         PowerModel &power);

    /**
     * Run one pipeline cycle whose clock edge falls on global tick
     * `now`.
     * @return instructions issued this cycle (the FSMs' input signal)
     */
    std::uint32_t cycle(Tick now);

    std::uint64_t committedInstructions() const
    {
        return committed.count();
    }
    Cycle pipelineCycles() const { return cycleNum; }

    /**
     * How many upcoming pipeline cycles are provably pure stall
     * cycles, assuming no memory-system event fires in between (the
     * caller bounds the answer by `hierarchy->nextEventTick()`).
     *
     * A pure stall cycle performs no stage work and records no power
     * accesses; its only effects are the cycle counter, the zero-issue
     * statistics, and at most one dispatch-stall counter - exactly
     * what skipIdleCycles() replays in bulk. Returns 0 when the next
     * cycle may make progress (or burn power trying: a ready entry
     * blocked on a unit/port still charges the LSQ CAM or consumes a
     * functional unit, so it disqualifies the fast path). Returns
     * maxTick when only a memory event can wake the core.
     */
    Cycle cyclesUntilProgress() const;

    /**
     * Apply the bookkeeping of `edges` consecutive pure stall cycles
     * (pipeline-edge ticks only; edgeless ticks never reach the core).
     * Bit-identical to running cycle() that many times under the
     * cyclesUntilProgress() preconditions.
     */
    void skipIdleCycles(Cycle edges);

    void regStats(StatRegistry &registry, const std::string &prefix) const;

    /** Attach an event sink (nullptr = tracing off, the default). */
    void setTraceSink(TraceSink *sink) { trace = sink; }

  private:
    enum class EntryStatus : std::uint8_t
    {
        Empty,
        Dispatched,  ///< in the window, waiting for operands/unit
        Issued,      ///< executing (or load waiting for memory)
        Completed    ///< result available; dependents may issue
    };

    /** End of a consumer list. */
    static constexpr std::uint32_t noLink = ~std::uint32_t{0};

    /** What the stages need of an op's class, decoded once per op at
     *  fetch (8 bytes, copied as one word). */
    struct OpDecode
    {
        std::uint8_t pool;        ///< FuPool index
        std::uint8_t latency;     ///< execute latency (agen for memory)
        std::uint8_t busyCycles;  ///< OpTiming::busyCycles()
        PowerStructure unit;      ///< the executing unit's structure
        bool mem;                 ///< isMemOp()
        bool store;
        bool prefetch;
        bool branch;
    };

    /**
     * One in-flight op, fetched and not yet committed: the trace op,
     * stored once at fetch, and its fetch-time prediction (64 bytes on
     * LP64 hosts: one cache line).
     */
    struct OpSlot
    {
        MicroOp op;
        bool fetchMispredicted = false;
        BranchPrediction pred;  ///< branches only
    };

    /**
     * The scheduling state of one in-flight op (one RUU entry once
     * dispatched). Fetch writes the decode into the entry of the op's
     * ring slot, which the op's predecessor there has left Empty.
     */
    struct RuuEntry
    {
        InstSeqNum seq = invalidSeqNum;
        Cycle completeCycle = 0;  ///< valid when Issued (non-memory)
        OpDecode decode{};
        /**
         * Head of this entry's consumer list. A link names one source
         * operand of one consumer: slot * 2 + operand, so an op whose
         * two sources are the same producer sits on its list twice.
         */
        std::uint32_t consumers = noLink;
        std::uint32_t nextConsumer[2] = {noLink, noLink};
        /** Next entry in the same completion-wheel slot. */
        std::uint32_t nextDue = noLink;
        std::uint32_t lsqSlot = 0;
        EntryStatus status = EntryStatus::Empty;
        bool memPending = false;  ///< load in the memory system
        std::uint8_t pendingSrcs = 0;  ///< producers not yet completed
    };

    /** One LSQ slot. */
    struct LsqEntry
    {
        InstSeqNum seq = invalidSeqNum;
        Addr wordAddr = 0;       ///< 8-byte-aligned effective address
        bool isStore = false;
        bool addrReady = false;  ///< agen done (stores)
    };

    // Pipeline stages (called youngest-last so results flow across
    // cycles, not within one).
    void commitStage(Tick now);
    void completeStage(Tick now);
    std::uint32_t issueStage(Tick now);
    /** issueStage()'s select loop, with something ready. */
    std::uint32_t issueReady(Tick now);
    void dispatchStage();
    void fetchStage(Tick now);

    /** Ring slot of in-flight sequence number `seq`, in both `ops`
     *  and `ruu`. */
    std::uint32_t
    slotIndex(InstSeqNum seq) const
    {
        return static_cast<std::uint32_t>(seq) & ringMask;
    }
    RuuEntry &slot(InstSeqNum seq) { return ruu[slotIndex(seq)]; }

    /** Fetched ops not yet dispatched. */
    std::uint32_t
    fetchCount() const
    {
        return static_cast<std::uint32_t>(nextFetchSeq - tailSeq);
    }
    /** Dispatched ops not yet committed. */
    std::uint32_t
    ruuOccupancy() const
    {
        return static_cast<std::uint32_t>(tailSeq - headSeq);
    }

    /** Put operand `operand` of the op in RUU slot `idx` on the
     *  consumer list of `producer` unless that producer is done
     *  (committed or Completed). */
    void linkProducer(std::uint32_t idx, unsigned operand,
                      InstSeqNum producer);
    /** `producer` just completed: count down its consumers' operands
     *  and move the ones left with none outstanding into the ready
     *  set. */
    void wakeConsumers(RuuEntry &producer);

    void markReady(std::uint32_t idx);
    void clearReady(std::uint32_t idx);

    /** Put the Issued op in RUU slot `idx` on the wheel slot of
     *  pipeline cycle `when`. */
    void scheduleCompletion(std::uint32_t idx, Cycle when);
    /** Earliest cycle holding a scheduled completion, or maxTick. */
    Cycle earliestCompletion() const;

    /** True if an older store to the same word can forward. */
    bool storeForwards(const RuuEntry &entry) const;

    /** Buckets of the address-ready store filter (a power of two). */
    static constexpr std::uint32_t storeFilterBuckets = 256;
    static std::uint32_t
    storeFilterBucket(Addr word_addr)
    {
        return static_cast<std::uint32_t>(word_addr >> 3) &
               (storeFilterBuckets - 1);
    }

    /** Try to start the memory access of the ready load, store or
     *  prefetch in ring slot `idx`. */
    bool startMemoryAccess(std::uint32_t idx, Tick now);

    CoreConfig config;
    TraceSource &workload;
    MemoryHierarchy &memory;
    BranchPredictor &predictor;
    PowerModel &power;

    Cycle cycleNum = 0;

    /**
     * Every in-flight op sits in slot seq & ringMask of `ops` (the op)
     * and `ruu` (its scheduling state, once dispatched). The fetch
     * queue is [tailSeq, nextFetchSeq) and the window [headSeq,
     * tailSeq); together they hold at most ruuSize + fetchQueueSize
     * ops, which the power-of-two ring size covers.
     */
    std::uint32_t ringMask = 0;
    std::vector<OpSlot> ops;
    std::vector<RuuEntry> ruu;

    // Fetch state.
    InstSeqNum nextFetchSeq = 1;
    /** Ops drawn from the trace but not yet fetched, read in place. */
    std::span<const MicroOp> traceOps;
    InstSeqNum blockingBranch = invalidSeqNum;
    Cycle fetchResumeCycle = 0;
    bool icacheStall = false;

    // Window state.
    InstSeqNum headSeq = 1;  ///< oldest in-flight sequence number
    InstSeqNum tailSeq = 1;  ///< next sequence number to dispatch

    /** Ready set: one bit per ring slot, set exactly for Dispatched
     *  entries with no producer outstanding. */
    std::vector<std::uint64_t> readyBits;
    std::uint32_t readyCount = 0;

    /**
     * Completion wheel over the Issued entries whose completion cycle
     * is known (all but loads waiting on memory): slot c & wheelMask
     * heads an intrusive list, through RuuEntry::nextDue, of the
     * entries completing on cycle c. A scheduled cycle is always in
     * (cycleNum, cycleNum + wheelMask], so a slot never mixes cycles.
     */
    std::vector<std::uint32_t> wheelHead;
    /** One bit per wheel slot, set exactly when its list is non-empty. */
    std::vector<std::uint64_t> wheelBits;
    std::uint32_t wheelMask = 0;
    /** completeStage's due branches (room for a whole ring). */
    std::vector<InstSeqNum> dueBranches;

    std::vector<LsqEntry> lsq;
    std::uint32_t lsqHead = 0;
    std::uint32_t lsqTail = 0;
    std::uint32_t lsqOccupancy = 0;
    /** Where dispatch writes the LSQ fields of an op that is not a
     *  memory op. */
    LsqEntry lsqScratch;
    /**
     * Address-ready stores in the LSQ, counted per storeFilterBucket()
     * of their word address: a store's agen increments its bucket and
     * its commit decrements it. A superset of the stores that can
     * forward to a load (it also counts younger stores and other words
     * in the bucket), so a zero bucket skips the LSQ walk without
     * changing its answer. Derived state: the core starts empty.
     */
    std::array<std::uint16_t, storeFilterBuckets> readyStores{};

    FuPoolSet units;
    std::uint32_t dcachePortsUsed = 0;

    TraceSink *trace = nullptr;

    // Statistics.
    Counter committed;
    Counter issuedTotal;
    Counter fetched;
    Counter loadsExecuted;
    Counter storesExecuted;
    Counter swPrefetchesExecuted;
    Counter storeForwardCount;
    Counter branchesResolved;
    Counter mispredictRecoveries;
    Counter zeroIssueCycles;
    Counter ruuFullStalls;
    Counter lsqFullStalls;
    Counter memRetries;
    /** Tallies every value up to the issue width (DESIGN.md 5d). */
    Distribution issueRateDist;
};

} // namespace vsv

#endif // VSV_CPU_CORE_HH
