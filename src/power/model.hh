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
#include <span>
#include <string>

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

/** The per-run energy accountant. */
class PowerModel
{
  public:
    explicit PowerModel(const PowerModelConfig &config = {});

    /** Pipeline-domain supply for the current tick (volts). */
    void setPipelineVdd(double vdd);
    double pipelineVdd() const { return pipelineVdd_; }

    /**
     * Select the latch set on the VDDL->VDDH paths: true while the
     * pipeline is in (or ramping through) the low-power path so the
     * level-converting latches are selected.
     */
    void
    setLowPowerPath(bool low)
    {
        // Called every tick; only a change re-derives the charges.
        if (low != lowPowerPath) {
            lowPowerPath = low;
            refreshCharges();
        }
    }

    /**
     * Charge one ramp's dual-rail network energy (66 nJ). `when` is
     * only used to timestamp the trace event (if tracing is on).
     */
    void addRampEnergy(Tick when = 0);

    /** Attach an event sink (nullptr = tracing off, the default). */
    void setTraceSink(TraceSink *sink) { trace = sink; }

    /**
     * Lockstep fanout: mirror every recordAccess() and tick() into
     * `followers` (each charging at its *own* pipeline VDD /
     * latch-path selection, as pushed by its rail's controller).
     * Only those two methods forward - controller-driven calls
     * (setPipelineVdd, setLowPowerPath, addRampEnergy) and the idle
     * banking entry point accrueIdleTicks() are made per rail by
     * the simulator, so each follower replays exactly the call
     * sequence a serial run of its config would see. Followers must
     * outlive the fanout window; pass an empty span to detach.
     */
    void setFanout(std::span<PowerModel> followers)
    {
        fanout_ = followers;
    }

    /**
     * Record `count` accesses to structure s during this tick, charged
     * `count * per_access * vsq` evaluated left to right (per_access
     * being accessPj times the latch factor, vsq the domain's V^2
     * ratio). Inline: the core charges about sixteen accesses per
     * instruction. A single access adds the cached
     * `per_access * vsq`, which is that product with count 1 exactly;
     * any other count multiplies out, because count * (per_access *
     * vsq) rounds differently unless count is a power of two.
     */
    void
    recordAccess(PowerStructure s, double count = 1.0)
    {
        if (!fanout_.empty())
            fanOutAccess(s, count);

        const auto idx = static_cast<std::size_t>(s);
        accessesThisTick[idx] += count;
        anyAccessThisTick = true;

        if (count == 1.0) {
            energyPj[idx] += accessChargePj[idx];
        } else {
            energyPj[idx] += count * perAccessPj(s) *
                             domainVoltageSq(structureParams(s).domain);
        }
    }

    /**
     * Close out one global tick.
     * @param pipeline_edge true when the pipeline clock (and the
     *        half-clocked L1/regfile) saw an edge this tick
     */
    void tick(bool pipeline_edge);

    /**
     * Account `edges + no_edges` consecutive *idle* global ticks in
     * one call: ticks on which no structure recorded an access, split
     * by whether the pipeline clock had an edge. Exactly equivalent to
     * the same sequence of tick() calls - idle ticks are banked in
     * pending counters either way and converted to energy at the same
     * flush boundaries (a voltage change, an access-carrying tick, or
     * an energy read), so fast-forwarded and per-tick runs produce
     * bit-identical totals. Must not be called with accesses recorded
     * and not yet closed by tick(). The banked counters are serialized
     * un-flushed by snapshot(), so a restore mid-bank replays the same
     * flush-boundary schedule.
     */
    void accrueIdleTicks(std::uint64_t edges, std::uint64_t no_edges);

    /**
     * Convert any banked idle ticks to energy now. Called implicitly
     * by every energy getter; call explicitly before reading the
     * registered Scalars directly (e.g. a registry dump).
     */
    void flushIdle() const;

    /** Cumulative energy in picojoules (dynamic + ramp + leakage). */
    double totalEnergyPj() const;
    /**
     * totalEnergyPj() without the implicit flush: banked idle ticks
     * are *computed into* the returned total but stay banked, so the
     * flush-boundary schedule - and therefore the floating-point
     * operation order behind every energy scalar - is unchanged.
     * Used by the interval-stats sampler, which must not perturb the
     * bit-identical-stats contract (DESIGN.md 5d).
     */
    double peekTotalEnergyPj() const;
    double structureEnergyPj(PowerStructure s) const;
    double leakageEnergyPj() const
    {
        flushIdle();
        return leakageEnergy.value();
    }
    double rampEnergyPj() const
    {
        return rampEnergy.value();
    }
    double domainEnergyPj(VoltageDomain domain) const;

    /** Average power in watts given a wall-clock duration in ticks. */
    double averagePowerW(Tick duration_ticks) const;

    void regStats(StatRegistry &registry, const std::string &prefix) const;

    /**
     * Serialize accumulators, per-tick activity and banked idle ticks
     * exactly as they stand - no implicit flushIdle(), so the restored
     * model replays the same flush-boundary schedule (and therefore
     * the same floating-point operation order) as a fresh run.
     */
    void snapshot(SnapshotWriter &writer) const;

    /** Restore state saved by snapshot(); same config required. */
    void restore(SnapshotReader &reader);

    const PowerModelConfig &config() const { return config_; }

  private:
    /** recordAccess() on every lockstep follower; out of line so the
     *  inlined charge stays small. */
    void fanOutAccess(PowerStructure s, double count);

    /** (V/VDDH)^2 of a domain's current supply: 1 for the fixed
     *  domain, whose energies are specified at VDDH. */
    double
    domainVoltageSq(VoltageDomain domain) const
    {
        return domain == VoltageDomain::Fixed ? 1.0 : scaledVsq;
    }

    /**
     * Energy of one access to s at VDDH. The VDDL->VDDH path latches:
     * in the high-power mode the regular (cheaper) latch set is
     * selected; in the low-power mode the level-converting set is.
     * Only the selected set burns power.
     */
    double
    perAccessPj(PowerStructure s) const
    {
        const double pj = structureParams(s).accessPj;
        return s == PowerStructure::LevelConverters && !lowPowerPath
                   ? pj * config_.converterHighModeFactor
                   : pj;
    }

    /** Recompute scaledVsq and the cached charges from pipelineVdd_
     *  and lowPowerPath; call on every change of either. */
    void refreshCharges();

    /** Charge idle/clock/leakage energy for one access-carrying tick
     *  (the original per-tick loop). */
    void chargeActiveTick(bool pipeline_edge);

    PowerModelConfig config_;
    double pipelineVdd_;
    double vddHighSq;
    /**
     * The scaled domain's (V*V)/VDDH^2 at pipelineVdd_, refreshed by
     * refreshCharges(). Cached as this exact quotient, so every charge
     * rounds as it would with the ratio recomputed.
     */
    double scaledVsq = 1.0;
    bool lowPowerPath = false;
    TraceSink *trace = nullptr;
    /** Lockstep follower models; see setFanout(). */
    std::span<PowerModel> fanout_;

    std::array<double, numPowerStructures> accessesThisTick{};
    /** O(1) test for "no structure accessed this tick". */
    bool anyAccessThisTick = false;
    std::array<Scalar, numPowerStructures> energyPj;
    Scalar rampEnergy;
    Scalar leakageEnergy;
    /** Precomputed per-tick leakage at VDDH, split by domain. */
    double scaledLeakPerTick = 0.0;
    double fixedLeakPerTick = 0.0;
    Scalar ticks;
    Scalar pipelineEdges;

    /**
     * Idle ticks banked since the last flush, all at the current
     * pipeline VDD (setPipelineVdd flushes on a change of value).
     * Split by pipeline-clock edge: the two tick kinds charge
     * different structure sets.
     */
    mutable std::uint64_t pendingIdleEdges = 0;
    mutable std::uint64_t pendingIdleNoEdges = 0;
    /**
     * Per-structure idle energy at VDDH for one idle tick, with the
     * gating style already applied (ClockTree's entry is its per-edge
     * cycle energy). Computed once in the constructor.
     */
    std::array<double, numPowerStructures> idleBasePj{};
    /**
     * Per-structure charges at the current pipelineVdd_ and latch
     * path, refreshed by refreshCharges(): perAccessPj(s) * vsq for
     * one access, and idleBasePj * vsq for one access-carrying tick on
     * which the structure idles (the clock tree's: one edge). Each is
     * the same product the uncached charge evaluates, so it rounds
     * identically.
     */
    std::array<double, numPowerStructures> accessChargePj{};
    std::array<double, numPowerStructures> idleChargePj{};
};

} // namespace vsv

#endif // VSV_POWER_MODEL_HH
