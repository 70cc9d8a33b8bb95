/**
 * @file
 * Voltage-aware, Wattch-style dynamic power accounting.
 *
 * Usage per global tick (1 ns):
 *   1. The VSV controller pushes the pipeline-domain supply voltage
 *      for this tick via setPipelineVdd() (the average of the cycle's
 *      start and end voltage during ramps, per paper Section 5.2) and
 *      the operating mode via setLowPowerPath().
 *   2. Components record activity with recordAccess(); the access
 *      energy is charged immediately at the structure's current
 *      domain voltage, from a per-structure charge cached whenever
 *      the voltage or the latch-path selection changes.
 *   3. The simulator calls tick(pipeline_edge) once, which charges
 *      clock-tree power (only on pipeline clock edges - half rate in
 *      the low-power mode) and residual idle power for unaccessed
 *      structures, then clears the per-tick activity.
 *
 * Deterministic clock gating (DCG): structures the DCG paper gates
 * (functional units, pipeline latches, D-cache wordline decoders,
 * result-bus drivers) consume only (1 - gatingEfficiency) of the
 * residual idle power when unused; everything else pays the full
 * idleFraction because the clock-gate signal cannot reach it in time
 * (the paper's "timing too tight" argument). Gated-off structures in
 * a cycle contribute nothing else, as in Wattch's aggressive
 * conditional-clocking mode.
 *
 * Leakage is excluded by default, matching the paper (0.18 um); a
 * nonzero leakageFraction enables the VDD^3 leakage model the paper
 * defers to future technology nodes.
 */

#ifndef VSV_POWER_MODEL_HH
#define VSV_POWER_MODEL_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"
#include "power/structures.hh"
#include "stats/stats.hh"
#include "trace/sink.hh"

namespace vsv
{

class SnapshotReader;
class SnapshotWriter;

/**
 * Clock-gating style, following Wattch's conditional-clocking modes
 * plus the deterministic clock gating (DCG) the paper's baseline uses.
 */
enum class GatingStyle : std::uint8_t
{
    None,    ///< no gating: idle structures burn a full busy cycle
    Simple,  ///< ungated clock loads only: idleFraction everywhere
    Dcg,     ///< DCG gates FUs/latches/decoders/result bus (baseline)
    Ideal    ///< perfect gating: idle structures burn nothing
};

/** Tunable power-model parameters. */
struct PowerModelConfig
{
    double vddHigh = 1.8;  ///< VDDH (TSMC 0.18 um nominal)
    double vddLow = 1.2;   ///< VDDL (half-speed point, Section 3.1)
    GatingStyle gating = GatingStyle::Dcg;
    /** Fraction of gateable idle power DCG removes. */
    double gatingEfficiency = 0.92;
    /** Idle (clock-load) power as a fraction of a busy cycle. */
    double idleFraction = 0.10;
    /** Dual-rail network ramp energy per transition (Section 5.2). */
    double rampEnergyPj = 66000.0;
    /**
     * Leakage power as a fraction of a structure's busy-cycle dynamic
     * power at VDDH. The paper excludes leakage (it is small at
     * 0.18 um) but notes that supply scaling cuts it with VDD^3..4;
     * setting this nonzero models a leakier technology node. Leakage
     * accrues every tick regardless of clock gating and scales with
     * the domain voltage cubed.
     */
    double leakageFraction = 0.0;
    /**
     * Regular-latch energy relative to a level-converting latch on
     * the VDDL->VDDH paths (Section 3.6: the unselected set is
     * clock-gated, so only one set burns power).
     */
    double converterHighModeFactor = 0.5;
};

/**
 * The per-run energy accountant: a ledger of one or more rails. A
 * rail is one power configuration's supply - its pipeline VDD, latch
 * path, banked idle ticks, ramp and leakage energy. A serial run has
 * one rail; a lockstep batch (DESIGN.md 5h) has one per config, all
 * charged by the one shared front-end.
 *
 * Activity is recorded once and charged to every rail at its own
 * voltage: each structure has one contiguous row of per-rail energy
 * accumulators and one row of per-rail cached charges, an access adds
 * count x charge to each rail in rail order, and a tick closes every
 * rail in one pass over its idle bits. Ticks and pipeline edges are
 * counted once, since the rails share timing. Every per-rail
 * accumulator sees exactly the floating-point operations, in the same
 * order, that a one-rail model of its config fed the same calls would
 * apply, so each rail is bit-identical to a serial run.
 *
 * Per-rail calls take the rail index last, defaulting to rail 0.
 */
class PowerModel
{
    struct RailState;

  public:
    /** A ledger of one rail. */
    explicit PowerModel(const PowerModelConfig &config = {});
    /** A ledger of one rail per entry of `rails`, in order. */
    explicit PowerModel(std::span<const PowerModelConfig> rails);

    // Rail handles and stat registries point into the ledger.
    PowerModel(const PowerModel &) = delete;
    PowerModel &operator=(const PowerModel &) = delete;

    std::size_t railCount() const { return railCount_; }

    /**
     * One rail's supply-side entry points, bound to its index: the
     * handle a VSV controller drives its own rail through.
     */
    class Rail
    {
      public:
        /**
         * PowerModel::setPipelineVdd() and setLowPowerPath() on this
         * rail in one call: a change to either derives (or looks up)
         * one charge row, for the pair.
         */
        void
        setSupply(double vdd, bool low)
        {
            if (vdd != state->pipelineVdd || low != state->lowPowerPath)
                model->changeSupply(vdd, low, index);
        }
        void addRampEnergy(Tick when) { model->addRampEnergy(when, index); }

      private:
        friend class PowerModel;
        Rail(PowerModel &model, std::size_t index)
            : model(&model), state(&model.rails_[index]), index(index)
        {
        }

        PowerModel *model;
        /** The rail's own state, read every tick without indexing. */
        const RailState *state;
        std::size_t index;
    };

    /** The handle of rail r; valid as long as the ledger lives. */
    Rail rail(std::size_t r);

    /**
     * Pipeline-domain supply of a rail for the current tick (volts).
     * Called every tick; only a change flushes the rail's banked idle
     * ticks and re-derives its charges.
     */
    void
    setPipelineVdd(double vdd, std::size_t rail = 0)
    {
        if (vdd != rails_[rail].pipelineVdd)
            changeSupply(vdd, rails_[rail].lowPowerPath, rail);
    }
    double pipelineVdd(std::size_t rail = 0) const
    {
        return rails_[rail].pipelineVdd;
    }

    /**
     * Select a rail's latch set on the VDDL->VDDH paths: true while
     * the pipeline is in (or ramping through) the low-power path so
     * the level-converting latches are selected.
     */
    void
    setLowPowerPath(bool low, std::size_t rail = 0)
    {
        // Called every tick; only a change re-derives the charges.
        if (low != rails_[rail].lowPowerPath)
            changeSupply(rails_[rail].pipelineVdd, low, rail);
    }

    /**
     * Charge one ramp's dual-rail network energy (66 nJ) to a rail.
     * `when` is only used to timestamp the trace event (if tracing is
     * on).
     */
    void addRampEnergy(Tick when = 0, std::size_t rail = 0);

    /** Attach an event sink to a rail (nullptr = tracing off, the
     *  default). */
    void setTraceSink(TraceSink *sink, std::size_t rail = 0)
    {
        rails_[rail].trace = sink;
    }

    /**
     * Record `count` (>= 1) accesses to structure s during this tick,
     * charged to every rail as `count * per_access * vsq` evaluated
     * left to right (per_access being accessPj times the rail's latch
     * factor, vsq the domain's V^2 ratio on that rail). Inline: the
     * core charges about sixteen accesses per instruction. A
     * power-of-two count (1, or the core's 2) adds count times the
     * cached `per_access * vsq`: scaling by a power of two is exact,
     * so that is the left-to-right product to the bit. Any other
     * count multiplies out, because count * (per_access * vsq) rounds
     * differently from it.
     */
    void
    recordAccess(PowerStructure s, std::uint32_t count = 1)
    {
        const auto idx = static_cast<std::size_t>(s);
        if (countingAccesses)
            accessesThisTick[idx] += count;
        accessedMask |= std::uint32_t{1} << idx;

        if ((count & (count - 1)) != 0) {
            chargeUnevenAccesses(s, count);
            return;
        }
        const std::size_t n = railCount_;
        const double k = static_cast<double>(count);
        if (n == 1) {
            // Every serial run: one add, no rail loop.
            energyPj[idx] += k * accessChargePj[idx];
            return;
        }
        Scalar *energy = energyPj.data() + idx * n;
        const double *charge = accessChargePj.data() + idx * n;
        for (std::size_t r = 0; r < n; ++r)
            energy[r] += k * charge[r];
    }

    /**
     * Stop keeping the per-structure access counts that only
     * snapshot() reads, which may not be called afterwards. The
     * measured loop, which never snapshots, calls this before its
     * first tick, so neither an access nor a tick's close touches the
     * counts.
     */
    void stopCountingAccesses() { countingAccesses = false; }

    /**
     * Close out one global tick on every rail.
     * @param pipeline_edge true when the pipeline clock (and the
     *        half-clocked L1/regfile) saw an edge this tick
     */
    void
    tick(bool pipeline_edge)
    {
        ++ticks;
        if (pipeline_edge)
            ++pipelineEdges;

        if (accessedMask == 0) {
            // Pure idle tick: just bank it. No rail's voltage can
            // change without flushing that rail (setPipelineVdd
            // flushes on a value change), so the conversion to energy
            // can happen later, in bulk.
            if (pipeline_edge)
                ++idleEdges;
            else
                ++idleNoEdges;
            return;
        }
        closeActiveTick(pipeline_edge);
    }

    /**
     * Account `edges + no_edges` consecutive *idle* global ticks on
     * every rail in one call: ticks on which no structure recorded an
     * access, split by whether the pipeline clock had an edge.
     * Exactly equivalent to the same sequence of tick() calls - idle
     * ticks are banked either way and converted to energy at the same
     * flush boundaries (a voltage change, an access-carrying tick, or
     * an energy read), so fast-forwarded and per-tick runs produce
     * bit-identical totals. Must not be called with accesses recorded
     * and not yet closed by tick(). The banked counts are serialized
     * un-flushed by snapshot(), so a restore mid-bank replays the same
     * flush-boundary schedule.
     */
    void accrueIdleTicks(std::uint64_t edges, std::uint64_t no_edges);

    /**
     * Convert every rail's banked idle ticks to energy now. Each
     * energy getter flushes its own rail implicitly; call this before
     * reading the registered Scalars directly (e.g. a registry dump).
     */
    void flushIdle() const;

    /** A rail's cumulative energy in picojoules (dynamic + ramp +
     *  leakage). */
    double totalEnergyPj(std::size_t rail = 0) const;
    /**
     * totalEnergyPj() without the implicit flush: banked idle ticks
     * are *computed into* the returned total but stay banked, so the
     * flush-boundary schedule - and therefore the floating-point
     * operation order behind every energy scalar - is unchanged.
     * Used by the interval-stats sampler, which must not perturb the
     * bit-identical-stats contract (DESIGN.md 5d).
     */
    double peekTotalEnergyPj(std::size_t rail = 0) const;
    double structureEnergyPj(PowerStructure s, std::size_t rail = 0) const;
    double leakageEnergyPj(std::size_t rail = 0) const
    {
        flushRail(rail);
        return rails_[rail].leakageEnergy.value();
    }
    double rampEnergyPj(std::size_t rail = 0) const
    {
        return rails_[rail].rampEnergy.value();
    }
    double domainEnergyPj(VoltageDomain domain, std::size_t rail = 0) const;

    /** A rail's average power in watts given a wall-clock duration in
     *  ticks. */
    double averagePowerW(Tick duration_ticks, std::size_t rail = 0) const;

    /**
     * Register a rail's scalars: its own energies plus the shared tick
     * and pipeline-edge counts, named and ordered as a one-rail
     * model's.
     */
    void regStats(StatRegistry &registry, const std::string &prefix,
                  std::size_t rail = 0) const;

    /**
     * Serialize accumulators, per-tick activity and banked idle ticks
     * exactly as they stand - no implicit flushIdle(), so the restored
     * model replays the same flush-boundary schedule (and therefore
     * the same floating-point operation order) as a fresh run.
     * One-rail ledgers only.
     */
    void snapshot(SnapshotWriter &writer) const;

    /** Restore state saved by snapshot(); same config required.
     *  One-rail ledgers only. */
    void restore(SnapshotReader &reader);

    const PowerModelConfig &config(std::size_t rail = 0) const
    {
        return rails_[rail].config;
    }

  private:
    /**
     * One rail's per-structure charges at one (pipeline VDD, latch
     * path) point: perAccessPj(s) * vsq for one access, idleBasePj *
     * vsq for one access-carrying tick on which the structure idles
     * (the clock tree's: one edge), plus the domain quotient and the
     * per-tick leakage there. Each is the product the uncached charge
     * evaluates, so it rounds identically.
     */
    struct ChargeRow
    {
        std::uint64_t vddBits = 0;
        bool lowPowerPath = false;
        /** (V*V)/VDDH^2 at the row's VDD, as this exact quotient. */
        double scaledVsq = 1.0;
        double leakPerTick = 0.0;
        std::array<double, numPowerStructures> access{};
        std::array<double, numPowerStructures> idle{};
    };

    /** Everything a rail owns apart from its rows in the ledger. */
    struct RailState
    {
        explicit RailState(const PowerModelConfig &config);

        /**
         * Energy of one access to s at VDDH. The VDDL->VDDH path
         * latches: in the high-power mode the regular (cheaper) latch
         * set is selected; in the low-power mode the level-converting
         * set is. Only the selected set burns power.
         */
        double
        perAccessPj(PowerStructure s) const
        {
            const double pj = structureParams(s).accessPj;
            return s == PowerStructure::LevelConverters && !lowPowerPath
                       ? pj * config.converterHighModeFactor
                       : pj;
        }

        /** (V/VDDH)^2 of a domain's current supply: 1 for the fixed
         *  domain, whose energies are specified at VDDH. */
        double
        domainVoltageSq(VoltageDomain domain) const
        {
            return domain == VoltageDomain::Fixed ? 1.0 : scaledVsq;
        }

        /** The cached row at the current VDD and latch path,
         *  computed and added on a miss. */
        const ChargeRow &chargeRow();
        ChargeRow computeChargeRow() const;

        PowerModelConfig config;
        double pipelineVdd;
        bool lowPowerPath = false;
        /** The current row's scaledVsq and leakPerTick. */
        double scaledVsq = 1.0;
        double leakPerTick = 0.0;
        /** Per-tick leakage at VDDH, split by domain. */
        double scaledLeakPerTick = 0.0;
        double fixedLeakPerTick = 0.0;
        bool leaks = false;
        /**
         * Per-structure idle energy at VDDH for one idle tick, with
         * the gating style already applied (ClockTree's entry is its
         * per-edge cycle energy).
         */
        std::array<double, numPowerStructures> idleBasePj{};
        Scalar rampEnergy;
        Scalar leakageEnergy;
        /**
         * The ledger's idle-tick counts when this rail last flushed:
         * the rail's banked idle ticks are the counts' growth since.
         */
        std::uint64_t flushedIdleEdges = 0;
        std::uint64_t flushedIdleNoEdges = 0;
        TraceSink *trace = nullptr;
        /**
         * Charge rows seen so far, in first-use order. A VSV ramp
         * walks the same short list of voltages every time, so a
         * voltage change looks its row up instead of re-deriving it.
         * Derived from config alone: never serialized.
         */
        std::vector<ChargeRow> chargeRows;
        std::size_t lastRow = 0;
    };

    /** Rows a rail caches before it starts over; a VSV ramp uses
     *  about thirty. */
    static constexpr std::size_t maxChargeRows = 64;

    /** A new (VDD, latch path) pair: flush the banked idle ticks if
     *  the VDD moved, then load the pair's charge row. */
    void changeSupply(double vdd, bool low, std::size_t rail);

    /** Copy a rail's current charge row into its ledger columns. */
    void loadCharges(std::size_t rail);

    /** recordAccess() with a count that is not a power of two. */
    void chargeUnevenAccesses(PowerStructure s, std::uint32_t count);

    /** Convert one rail's banked idle ticks to energy, if any. */
    void
    flushRail(std::size_t rail) const
    {
        const RailState &state = rails_[rail];
        if (((idleEdges - state.flushedIdleEdges) |
             (idleNoEdges - state.flushedIdleNoEdges)) != 0)
            flushPendingIdle(rail);
    }
    void flushPendingIdle(std::size_t rail) const;

    /** tick() with accesses recorded: flush every rail's banked idle
     *  ticks, charge this tick's leakage, clock and idle structures
     *  on every rail, and clear its activity. */
    void closeActiveTick(bool pipeline_edge);
    /** closeActiveTick() over `Rails` rails, or railCount_ when 0: a
     *  one-rail ledger (every serial run) gets a close with no rail
     *  loops left in it. */
    template <std::size_t Rails>
    void closeRails(bool pipeline_edge);

    static_assert(numPowerStructures <= 32,
                  "a tick's accessed mask holds one bit per structure");
    static constexpr std::uint32_t clockTreeBit =
        std::uint32_t{1} << static_cast<unsigned>(PowerStructure::ClockTree);
    /** Structures that idle on a pipeline edge (the clock tree is
     *  charged on every edge, accessed or not). */
    static constexpr std::uint32_t idleOnEdge =
        ((std::uint32_t{1} << numPowerStructures) - 1) & ~clockTreeBit;
    /** Structures that idle on every tick: the L2 runs on the
     *  full-speed clock. */
    static constexpr std::uint32_t idleOnEveryTick =
        std::uint32_t{1} << static_cast<unsigned>(PowerStructure::L2Cache);

    std::size_t railCount_;
    /** Sized once, in the constructor: handles and registries point
     *  into it. */
    std::vector<RailState> rails_;

    /**
     * Accesses recorded per structure since the last tick() closed
     * (warmup, which runs no ticks, leaves its counts open), kept
     * until stopCountingAccesses(). Only snapshot() reads them; a
     * tick's close needs only the mask. Integer counts are exact; a
     * snapshot stores them as the doubles they convert to exactly
     * below 2^53.
     */
    std::array<std::uint64_t, numPowerStructures> accessesThisTick{};
    bool countingAccesses = true;
    /** One bit per structure with accesses recorded this tick. */
    std::uint32_t accessedMask = 0;
    /** Energy accumulators, row s holding every rail's: index
     *  s * railCount_ + rail. */
    std::vector<Scalar> energyPj;
    /** Each rail's cached charges, laid out like energyPj. */
    std::vector<double> accessChargePj;
    std::vector<double> idleChargePj;
    Counter ticks;
    Counter pipelineEdges;
    /** Idle ticks since construction (or restore), split by pipeline
     *  edge: the two tick kinds charge different structure sets. */
    std::uint64_t idleEdges = 0;
    std::uint64_t idleNoEdges = 0;
};

} // namespace vsv

#endif // VSV_POWER_MODEL_HH
