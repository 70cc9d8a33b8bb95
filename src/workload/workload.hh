/**
 * @file
 * Synthetic workload generation.
 *
 * The paper runs SPEC2K ref-input Alpha binaries; those (and 1e9-
 * instruction budgets) are unavailable here, so each benchmark is
 * replaced by a deterministic synthetic trace generator whose knobs
 * are calibrated against the paper's Table 2 (baseline IPC, L2 demand
 * misses per 1000 instructions with and without Time-Keeping
 * prefetching). VSV's behaviour is a function of (a) the L2 miss
 * rate, (b) instruction-level parallelism near misses, (c) miss
 * clustering / memory-level parallelism, and (d) address-stream
 * regularity (which determines Time-Keeping's effectiveness); the
 * generator exposes exactly those dimensions:
 *
 *  - Instruction mix: loads, stores, branches, FP/int compute,
 *    multiplies, divides.
 *  - Dataflow: geometric producer-distance distribution (ILP) and a
 *    load-consumer probability (how quickly work becomes dependent on
 *    outstanding loads - this is what makes the issue rate collapse
 *    after a miss in pointer-chasing codes).
 *  - Memory streams: a hot region (L1-resident), a warm region
 *    (L2-resident) and a cold region with one of four patterns:
 *      Scan          - strided sweep, wraps (swim/applu/lucas style);
 *                      regular, so Time-Keeping predicts it well
 *      Random        - uniform over the footprint; unpredictable
 *      Chain         - pointer chase over a fixed permutation; each
 *                      chain load depends on the previous one (ammp);
 *                      regular in per-set order, so TK learns it
 *      MutatingChain - chain whose links are continuously rewired
 *                      (mcf); TK's correlations go stale
 *  - Software prefetching (the SPEC peak binaries include it): a
 *    configurable fraction of cold accesses is preceded by a timely
 *    non-binding Prefetch op, emitted a configurable number of cold
 *    accesses ahead.
 *  - Branches: per-site biases derived from the pc plus a noise term,
 *    giving a controllable misprediction rate against the real
 *    hybrid predictor.
 */

#ifndef VSV_WORKLOAD_WORKLOAD_HH
#define VSV_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "isa/microop.hh"

namespace vsv
{

class SnapshotReader;
class SnapshotWriter;

/**
 * Anything that yields a dynamic micro-op stream: the core's input.
 * WorkloadGenerator is the production source; tests and the
 * micro-benchmarks substitute scripted streams.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next dynamic micro-op. */
    virtual MicroOp next() = 0;
};

/** Fixed base addresses of the synthetic regions. */
struct WorkloadRegions
{
    static constexpr Addr code = 0x0000000000400000ULL;
    static constexpr Addr hot = 0x0000000010000000ULL;
    static constexpr Addr warm = 0x0000000020000000ULL;
    static constexpr Addr cold = 0x0000000040000000ULL;
};

/** Cold-region address-stream shapes. */
enum class ColdPattern : std::uint8_t
{
    Scan,           ///< strided sweep; independent loads
    Random,         ///< uniform random; independent loads
    SeqChain,       ///< sequential addresses, but each load depends on
                    ///< the previous (pointer walk over contiguously
                    ///< allocated nodes - ammp's shape: low ILP yet
                    ///< Time-Keeping-predictable)
    Chain,          ///< pointer chase over a fixed random permutation
    MutatingChain   ///< chain whose links are continuously rewired
};

/** All knobs of one synthetic benchmark. */
struct WorkloadProfile
{
    std::string name = "generic";
    std::uint64_t seed = 1;

    // Instruction mix (fractions of the dynamic stream).
    double loadFrac = 0.24;
    double storeFrac = 0.10;
    double branchFrac = 0.11;
    /** Of compute ops: fraction that are FP. */
    double fpFrac = 0.0;
    double intMulFrac = 0.02;   ///< of int compute ops
    double intDivFrac = 0.002;  ///< of int compute ops
    double fpMulFrac = 0.35;    ///< of FP compute ops
    double fpDivFrac = 0.02;    ///< of FP compute ops

    // Dataflow.
    double meanDepDist = 5.0;      ///< mean producer distance (ILP)
    double secondSrcProb = 0.5;    ///< chance of a second source
    double loadConsumerProb = 0.2; ///< src chained to the latest load
    /**
     * Chance a compute op depends on the most recent *cold* load.
     * This is the knob that makes the issue rate collapse right after
     * an L2 miss (pointer codes) or keep flowing (solver sweeps) -
     * precisely the signal the down-FSM monitors.
     */
    double coldConsumerProb = 0.0;

    // Memory regions.
    double coldFrac = 0.0;   ///< of loads, to the cold region
    /**
     * Cold accesses arrive in back-to-back bursts of this size
     * (independent loads), modeling the miss clustering of stencil
     * and streaming codes. Burst size approximates the workload's
     * memory-level parallelism: misses within a burst overlap in the
     * MSHRs, which is what lets high-IPC benchmarks like swim sustain
     * their Table 2 IPC despite several misses per kilo-instruction.
     */
    std::uint32_t coldBurst = 1;
    double warmFrac = 0.10;  ///< of loads, to the warm region
    std::uint64_t hotFootprint = 32 * 1024;
    std::uint64_t warmFootprint = 768 * 1024;
    std::uint64_t coldFootprint = 16 * 1024 * 1024;
    ColdPattern coldPattern = ColdPattern::Scan;
    std::uint32_t coldStride = 64;    ///< Scan pattern stride (bytes)
    /**
     * Interleaved scan cursors with distinct strides. One stream is
     * perfectly Time-Keeping-predictable (constant per-set successor
     * delta); multiple interleaved streams alternate the deltas seen
     * per cache set, degrading TK's confidence - the knob that sets a
     * benchmark's prefetch coverage.
     */
    std::uint32_t scanStreams = 1;
    /**
     * Probability that a scan step jumps a random distance instead of
     * one stride. Jumps break the constant per-set successor delta,
     * dialing Time-Keeping's achievable coverage down - the knob that
     * reproduces each benchmark's Table 2 MR-with-TK value.
     */
    double scanJitterProb = 0.0;
    std::uint32_t chainCount = 1;     ///< parallel chains (MLP)
    double chainMutateProb = 0.0;     ///< MutatingChain rewire rate
    /**
     * Fraction of cold refs drawn from a regular (sequential) side
     * stream regardless of the primary pattern; gives pointer codes
     * like mcf their partially-TK-coverable array component.
     */
    double coldRegularFrac = 0.0;
    /** Footprint of the regular side stream (kept small enough that
     *  Time-Keeping sees multiple passes within a feasible warmup). */
    std::uint64_t regularFootprint = 3 * 1024 * 1024;
    /**
     * Stores reuse the load region odds scaled by this factor, with
     * *random* cold addresses. Random cold stores churn L1 sets with
     * arbitrary successors, poisoning Time-Keeping's correlations -
     * realistic for pointer-mutating codes (mcf) and deliberate for
     * art (whose MR the paper shows *rising* under TK), but off by
     * default for regular array codes.
     */
    double storeColdScale = 0.0;

    // Branch behaviour.
    double branchNoise = 0.08;  ///< chance a branch outcome is random
    std::uint64_t codeFootprint = 24 * 1024;
    double callFrac = 0.04;     ///< of branches: call/return pairs

    // Software prefetching (compiled into the SPEC peak binaries).
    double swPrefetchCoverage = 0.0;
    std::uint32_t swPrefetchLookahead = 8;  ///< cold accesses ahead

    /**
     * Functional-warmup length that lets Time-Keeping observe at
     * least ~1.5 passes over the cold footprint (its correlations for
     * a region are learned one pass before they can fire). Used by
     * the TK experiments; non-TK runs need far less.
     */
    std::uint64_t tkWarmupInstructions = 2000000;

    // Table 2 targets (for calibration/validation, not generation).
    double targetIpc = 0.0;
    double targetMrBase = 0.0;
    double targetMrTk = 0.0;
};

/** Deterministic trace generator for one profile. */
class WorkloadGenerator : public TraceSource
{
  public:
    /** Micro-ops generated per buffer refill (see `batch` below). */
    static constexpr std::uint32_t defaultBatchOps = 64;

    /**
     * @param batch ops generated per internal buffer refill. The
     *        generator is open-loop (no feedback from the consumer),
     *        so the delivered stream is identical for every batch
     *        size; larger batches just amortize the virtual-call and
     *        draw-state overhead (see bench/micro_components).
     */
    explicit WorkloadGenerator(const WorkloadProfile &profile,
                               std::uint32_t batch = defaultBatchOps);

    /** Deliver the next dynamic micro-op (from the batch buffer). */
    MicroOp next() override;

    const WorkloadProfile &profile() const { return profile_; }

    /** Dynamic instructions delivered so far. */
    std::uint64_t generated() const { return delivered; }

    /** Serialize RNG streams, cursors, chains and buffered ops. */
    void snapshot(SnapshotWriter &writer) const;

    /** Restore state saved by snapshot(); the profile must match. */
    void restore(SnapshotReader &reader);

  private:
    /** One pre-generated cold access. */
    struct ColdRef
    {
        Addr addr;
        std::int32_t chainId;  ///< -1 for non-chain patterns
    };

    /** Generate one op (the pre-batching next()) into `op`, a
     *  default-constructed batch-buffer slot. */
    void generate(MicroOp &op);

    void makeLoad(MicroOp &op);
    void makeStore(MicroOp &op);
    void makeBranch(MicroOp &op);
    void makeCompute(MicroOp &op);

    Addr hotAddr();
    Addr warmAddr();

    /** Keep the cold lookahead window full; may queue prefetches. */
    void extendColdWindow(std::size_t target_len);
    ColdRef takeColdRef();

    /** Raw pattern step for the cold region. */
    ColdRef generateColdRef();

    void assignComputeDeps(MicroOp &op);
    std::uint32_t producerDistance();
    Addr currentPc() const { return codeBase + loopSlot * 4; }

    WorkloadProfile profile_;
    Rng rng;
    Rng addrRng;   ///< separate stream so mix and addresses decouple
    /** Producer-distance distribution: geometric, mean meanDepDist. */
    GeometricParam producerParam;

    // Derived from the profile once, in the constructor; per-op draws
    // compare against these doubles.
    std::uint64_t loopInsts = 0;  ///< code-loop slots: codeFootprint / 4
    /** Bit s set iff loop slot s holds a branch (see generate()). */
    std::vector<std::uint64_t> branchSlots;
    double loadCut = 0.0;       ///< class draw below this: a load
    double storeCut = 0.0;      ///< ...else below this: a store
    double coldLoadCut = 0.0;   ///< load region draw below this: cold
    double warmLoadCut = 0.0;   ///< ...else below this: warm
    double coldStoreCut = 0.0;  ///< store region draw below this: cold
    double warmStoreCut = 0.0;  ///< ...else below this: warm

    // Batch buffer: generate() runs `batch_` ops ahead of delivery.
    std::uint32_t batch_;
    std::vector<MicroOp> opBuffer;
    std::size_t opBufferPos = 0;
    std::uint64_t delivered = 0;

    std::uint64_t position = 0;
    /** position % loopInsts, kept incrementally; not serialized. */
    std::uint64_t loopSlot = 0;
    std::uint64_t sinceLastLoad = 0;
    std::uint64_t sinceLastColdLoad = 0;

    // Cold-stream state.
    std::deque<ColdRef> coldWindow;
    std::uint32_t coldBurstRemaining = 0;
    std::deque<Addr> pendingPrefetches;
    std::vector<std::uint64_t> scanCursors;
    std::uint32_t nextScanStream = 0;
    std::uint64_t regularCursor = 0;
    std::vector<std::uint32_t> chainNext;   ///< permutation links
    std::vector<std::uint32_t> chainCursor; ///< per-chain position
    std::vector<std::uint64_t> lastChainLoadPos;
    std::uint32_t nextChain = 0;

    // Call/return shadow stack (so synthetic return targets match
    // what a return-address stack would predict).
    std::vector<Addr> callStack;

    static constexpr Addr codeBase = WorkloadRegions::code;
    static constexpr Addr hotBase = WorkloadRegions::hot;
    static constexpr Addr warmBase = WorkloadRegions::warm;
    static constexpr Addr coldBase = WorkloadRegions::cold;
};

/** Names of all 26 SPEC2K benchmarks, in Table 2 order. */
const std::vector<std::string> &spec2kBenchmarks();

/** The 7 benchmarks with baseline MR > 4 (Figures 5 and 6). */
const std::vector<std::string> &highMrBenchmarks();

/** Calibrated profile for a SPEC2K benchmark; fatal on unknown name. */
WorkloadProfile spec2kProfile(const std::string &name);

/** True iff a calibrated profile exists for this benchmark name. */
bool isSpec2kBenchmark(const std::string &name);

} // namespace vsv

#endif // VSV_WORKLOAD_WORKLOAD_HH
