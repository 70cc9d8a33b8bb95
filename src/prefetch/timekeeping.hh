/**
 * @file
 * Time-Keeping hardware prefetcher (Hu, Kaxiras, Martonosi, ISCA'02),
 * as configured in the paper's Section 5.1:
 *
 *  - Per-frame timekeeping with decay counters of 16-cycle resolution:
 *    a resident L1D block is predicted *dead* once its idle time
 *    exceeds a multiple of the generation's observed live time.
 *  - A 16 KB address predictor indexed by a signature built from nine
 *    L1 tag bits and one index bit, trained with per-set history: when
 *    block B replaces block A in a set, the predictor learns
 *    sig(A) -> B, so the next time A is resident and dies, B is
 *    prefetched.
 *
 *    Adaptation (documented in DESIGN.md): because one signature
 *    aliases every set with the same nine tag bits, the successor is
 *    stored as a *tag delta* (successor = victim + delta * set
 *    stride) guarded by a two-bit confidence counter, rather than as
 *    an absolute address. Regular streams have a constant per-set
 *    delta, so aliasing is harmless and coverage is high; irregular
 *    (pointer-chasing) streams see conflicting deltas, confidence
 *    stays low and few prefetches issue - reproducing the per-
 *    benchmark effectiveness split the paper's Table 2 reports.
 *  - Prefetched data lands in the L2 and in a 128-entry, fully
 *    associative, FIFO-replacement prefetch buffer beside the L1D
 *    (2-cycle access latency, probed on L1D misses).
 *
 * The decay sweep is implemented as a rotating scan (a slice of the
 * sets every 16 ticks) so the software cost is O(frames/sweepSlices)
 * per interval; hardware decay counters tick all frames in parallel,
 * and the slice rotation only quantizes death detection, which is
 * orders of magnitude finer than typical L1 dead times. The scan
 * skips a set whose frames cannot be dead yet: each set keeps a lower
 * bound on the first tick any of its frames can be found dead, and
 * each aligned group of 64 sets (one screen; one slice at the paper's
 * geometry) the minimum of its sets' bounds, so a screen with no set
 * due is skipped whole. Those bounds are a software shortcut with no
 * hardware meaning; they are derived state, never serialized, and
 * reset by restore().
 */

#ifndef VSV_PREFETCH_TIMEKEEPING_HH
#define VSV_PREFETCH_TIMEKEEPING_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "power/model.hh"
#include "stats/stats.hh"

namespace vsv
{

/** Time-Keeping parameters (defaults = the paper's Section 5.1). */
struct TimekeepingConfig
{
    std::uint32_t bufferEntries = 128;     ///< prefetch buffer capacity
    std::uint32_t decayResolution = 16;    ///< ticks per decay step
    double deadMultiplier = 2.0;           ///< idle > mult*live => dead
    std::uint32_t predictorEntries = 1024; ///< address predictor size
    std::uint32_t tagSigBits = 9;          ///< tag bits in the signature
    std::uint32_t indexSigBits = 1;        ///< index bits in the signature
    std::uint32_t sweepSlices = 16;        ///< sets scanned per 1/slices
    /** Minimum live time assumed for brand-new generations (ticks). */
    std::uint32_t minLiveTime = 64;
    /** Confidence a delta needs before it is used for prefetching. */
    std::uint8_t confidenceThreshold = 2;
    /** Largest |tag delta| the predictor entry can encode. Successor
     *  candidates farther away (cross-region churn) are not trained -
     *  a finite-field-width constraint of the 16 KB table. */
    std::int32_t maxDeltaTags = 64;
};

/** The Time-Keeping engine; one per core. */
class TimekeepingPrefetcher : public Prefetcher
{
  public:
    /**
     * @param l1d_config geometry of the L1D this engine shadows
     */
    TimekeepingPrefetcher(const TimekeepingConfig &config,
                          const CacheConfig &l1d_config,
                          PowerModel &power);

    // Prefetcher interface.
    void setIssuer(PrefetchIssuer *issuer) override;
    void notifyL1DAccess(Addr addr, bool hit, Tick now) override;
    void notifyL1DFill(Addr block_addr, Addr victim_block,
                       Tick now) override;
    bool probeBuffer(Addr addr, Tick now) override;
    void fillBuffer(Addr block_addr, Tick now) override;

    /**
     * Advance time; runs a decay-sweep slice every decayResolution
     * ticks. Call once per global tick (cheap when not on a boundary).
     */
    void
    tick(Tick now)
    {
        if (now < nextSweepTick)
            return;
        nextSweepTick = now + config.decayResolution;
        sweepSlice(now);
    }

    /** First tick at which tick() will do any work (decay sweeps are
     *  a strict no-op before this, which bounds idle fast-forwards). */
    Tick nextSweepAt() const { return nextSweepTick; }

    void regStats(StatRegistry &registry, const std::string &prefix) const;

    /** Serialize frames, predictor, buffer, sweep cursor and stats. */
    void snapshot(SnapshotWriter &writer) const;

    /** Restore state saved by snapshot(); geometry must match. */
    void restore(SnapshotReader &reader);

    std::uint64_t prefetchesIssued() const
    {
        return static_cast<std::uint64_t>(issued.value());
    }

    /** Introspection for tests/diagnostics: (delta, confidence) per
     *  predictor entry. */
    std::vector<std::pair<std::int32_t, std::uint8_t>>
    dumpPredictor() const;

  private:
    /** Shadow state of one L1D frame's resident generation. */
    struct Frame
    {
        Addr blockAddr = invalidAddr;
        Tick fillTime = 0;
        Tick lastAccess = 0;
        bool deadHandled = false;  ///< prefetch already attempted
    };

    /** Address-predictor entry (delta-encoded, see file comment). */
    struct PredictorEntry
    {
        std::int32_t deltaTags = 0;  ///< successor = victim + d*stride
        std::uint8_t confidence = 0; ///< 2-bit saturating counter
    };

    std::uint32_t setOf(Addr block_addr) const;
    std::uint32_t signature(Addr block_addr) const;
    Frame *findFrame(Addr block_addr);
    void sweepSlice(Tick now);
    /** Visit one due set of a sweep slice: predict its dead frames
     *  and recompute its wake tick. */
    void sweepSet(std::uint32_t set, Tick now);

    /** First tick at which the sweep's idle > deadMultiplier * live
     *  test can hold for `frame`, given its current timestamps. */
    Tick deadAt(const Frame &frame) const;
    /** Pull set `set`'s wake bound, and its screen's, down to
     *  `frame`'s deadline. */
    void noteDeadline(std::uint32_t set, const Frame &frame);

    /** Sets per screen: one 64-bit due mask. */
    static constexpr std::uint32_t screenSets = 64;

    TimekeepingConfig config;
    CacheConfig l1dConfig;
    PowerModel &power;
    PrefetchIssuer *issuer = nullptr;

    std::uint32_t numSets;
    std::uint32_t assoc;
    std::vector<Frame> frames;          ///< numSets * assoc
    /** Per set: no live frame of the set can be found dead before
     *  this tick, so the sweep skips the set until then. 0 = unknown
     *  (the next visit checks every frame and recomputes it). */
    std::vector<Tick> setWake;
    /** Per aligned group of screenSets sets: at most the minimum of
     *  their setWake, so a screen inside groups whose bound lies past
     *  `now` holds no due set. 0 = unknown. */
    std::vector<Tick> screenWake;
    std::vector<PredictorEntry> predictor;

    std::deque<Addr> bufferFifo;
    std::unordered_set<Addr> bufferSet;

    Tick nextSweepTick = 0;
    std::uint32_t sweepCursor = 0;

    Scalar issued;
    Scalar deadPredictions;
    Scalar trainedPairs;
    Scalar bufferHits;
    Scalar bufferInsertions;
    Scalar bufferReplacements;
    Scalar predictorMisses;
};

} // namespace vsv

#endif // VSV_PREFETCH_TIMEKEEPING_HH
