/**
 * @file
 * Hybrid branch predictor per the paper's Table 1 configuration:
 * an 8K/8K/8K hybrid (bimodal + gshare + chooser), a 32-entry return
 * address stack, and an 8192-entry 4-way set-associative BTB. The
 * misprediction penalty itself is enforced by the core, not here.
 *
 * Speculative state handling is simplified to the sim-outorder style:
 * the global history register is updated at prediction time with the
 * *predicted* outcome and repaired on a detected misprediction; the
 * counters and BTB update at resolution.
 */

#ifndef VSV_BRANCH_PREDICTOR_HH
#define VSV_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/microop.hh"
#include "stats/stats.hh"

namespace vsv
{

class SnapshotReader;
class SnapshotWriter;

/** Configuration of the hybrid predictor. */
struct BranchPredictorConfig
{
    std::uint32_t bimodalEntries = 8192;  ///< 2-bit counters
    std::uint32_t gshareEntries = 8192;   ///< 2-bit counters
    std::uint32_t chooserEntries = 8192;  ///< 2-bit counters
    std::uint32_t historyBits = 13;       ///< gshare global history width
    std::uint32_t btbEntries = 8192;      ///< total BTB entries
    std::uint32_t btbAssoc = 4;           ///< BTB associativity
    std::uint32_t rasEntries = 32;        ///< return address stack depth
};

/** Outcome of one prediction, fed back at resolution. */
struct BranchPrediction
{
    Addr predTarget = 0;          ///< predicted target (0 = unknown)
    std::uint32_t historyBefore = 0;  ///< history to restore on squash
    bool predTaken = false;       ///< predicted direction
    bool btbHit = false;          ///< target came from BTB/RAS
    bool usedGshare = false;      ///< chooser selection (for update)
};

/**
 * The Table 1 hybrid predictor. One instance per simulated core.
 */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const BranchPredictorConfig &config = {});

    /**
     * Predict a branch.
     *
     * @param op the branch micro-op (pc, kind)
     * @return the prediction record to hand back at resolve time
     */
    BranchPrediction predict(const MicroOp &op);

    /**
     * Pure check of a saved prediction against the trace outcome -
     * no table updates. Fetch uses this to stop at branches that will
     * be discovered mispredicted at resolution (the trace holds only
     * the correct path, so wrong-path fetch is modeled as a stall).
     */
    static bool wouldMispredict(const MicroOp &op,
                                const BranchPrediction &pred);

    /**
     * Resolve a branch: train tables and report whether the
     * prediction was wrong (direction or target).
     */
    bool resolve(const MicroOp &op, const BranchPrediction &pred);

    /** Register this predictor's stats. */
    void regStats(StatRegistry &registry, const std::string &prefix) const;

    /** Serialize counters, history, BTB, RAS and stats. */
    void snapshot(SnapshotWriter &writer) const;

    /** Restore state saved by snapshot(); geometry must match. */
    void restore(SnapshotReader &reader);

    /** Stats accessors used directly by tests. */
    std::uint64_t lookups() const
    {
        return static_cast<std::uint64_t>(lookups_.value());
    }
    std::uint64_t mispredicts() const
    {
        return static_cast<std::uint64_t>(mispredicts_.value());
    }

  private:
    struct BtbEntry
    {
        Addr tag = invalidAddr;
        Addr target = 0;
        std::uint64_t lruStamp = 0;
    };

    std::uint32_t bimodalIndex(Addr pc) const;
    std::uint32_t gshareIndex(Addr pc) const;
    std::uint32_t chooserIndex(Addr pc) const;

    /** 2-bit saturating counter helpers. */
    static bool counterTaken(std::uint8_t c) { return c >= 2; }
    static void bump(std::uint8_t &c, bool up);

    /** BTB lookup; returns nullptr on miss. */
    BtbEntry *btbLookup(Addr pc);
    void btbInsert(Addr pc, Addr target);

    BranchPredictorConfig config;

    std::vector<std::uint8_t> bimodal;
    std::vector<std::uint8_t> gshare;
    std::vector<std::uint8_t> chooser;
    std::uint32_t globalHistory = 0;
    std::uint32_t historyMask;

    std::vector<BtbEntry> btb;
    std::uint64_t btbStamp = 0;

    std::vector<Addr> ras;
    std::uint32_t rasTop = 0;   ///< index of next push slot

    Scalar lookups_;
    Scalar mispredicts_;
    Scalar directionMisses;
    Scalar targetMisses;
    Scalar btbHits;
    Scalar rasPushes;
    Scalar rasPops;
};

} // namespace vsv

#endif // VSV_BRANCH_PREDICTOR_HH
