/**
 * @file
 * The VSV controller: the paper's Figure 1 FSM block plus the
 * Figure 2/3 transition timelines.
 *
 * Operating states:
 *
 *   High          full clock, VDDH (the default mode, Section 4.1)
 *   DownClockDist 2 ns control-signal + 2 ns clock-tree distribution;
 *                 the processor still runs at full speed and VDDH
 *                 until the slower clock reaches the leaves
 *   RampDown      12 ns VDD ramp 1.8 -> 1.2 V at half clock
 *   Low           half clock, VDDL (Section 4.3)
 *   UpClockDist   2 ns control distribution at half clock, VDDL
 *   RampUp        12 ns VDD ramp 1.2 -> 1.8 V at half clock; the
 *                 full-speed clock-tree distribution overlaps the
 *                 last 2 ns (Section 3.4), so full speed resumes
 *                 immediately after the ramp
 *
 * Transition policy:
 *
 *  - High -> Low: a *demand* L2-miss detection arms the down-FSM
 *    (or fires immediately when the FSM is disabled / threshold 0).
 *  - Low -> High: when the last outstanding demand miss returns the
 *    transition always starts (Section 4.4's single-miss rule);
 *    earlier returns are governed by the configured policy: the
 *    up-FSM (default), First-R (any return fires) or Last-R (only
 *    the last return fires; intermediate returns do nothing).
 *  - Events arriving mid-transition are not lost: a return during the
 *    down transition is replayed on entering Low, and a detection
 *    during the up transition re-arms the down path on entering High
 *    if demand misses are still outstanding.
 *
 * Each tick the controller advances its state, drives the pipeline
 * VDD into its rail of the PowerModel (average voltage across ramp
 * ticks, plus the 66 nJ dual-rail charge per ramp) and reports
 * whether the pipeline clock has an edge this tick (half rate in low
 * states).
 */

#ifndef VSV_VSV_CONTROLLER_HH
#define VSV_VSV_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <string>

#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "power/model.hh"
#include "stats/stats.hh"
#include "trace/sink.hh"
#include "vsv/fsm.hh"
#include "vsv/rail.hh"

namespace vsv
{

/** Low-to-high transition policies of Section 6.3. */
enum class UpPolicy : std::uint8_t
{
    Fsm,     ///< up-FSM issue-rate monitoring (the proposal)
    FirstR,  ///< switch up on the first returning miss
    LastR    ///< switch up only when the last outstanding miss returns
};

/** Controller configuration. */
struct VsvConfig
{
    /** Master switch; disabled = the baseline processor. */
    bool enabled = true;

    /** Down path: threshold 0 disables the down-FSM. */
    IssueMonitorConfig down{3, 10};

    UpPolicy upPolicy = UpPolicy::Fsm;
    IssueMonitorConfig up{3, 10};

    // Circuit timings, in ticks (= ns at 1 GHz). Section 3.2/3.4.
    std::uint32_t ctrlDistTicks = 2;
    std::uint32_t clockTreeTicks = 2;
    /**
     * Divided-clock ratio in the low-power states: the pipeline sees
     * one edge every `clockDivider` full-speed ticks. The paper's
     * design point is 2 (half speed at VDDL, Section 3.3); frequency
     * sweeps change it here so the divided clock can never silently
     * desynchronize from the configured ratio.
     */
    std::uint32_t clockDivider = 2;
    double vddHigh = 1.8;
    double vddLow = 1.2;
    double slewVoltsPerTick = 0.05;  ///< 12-tick swing for 0.6 V
};

/** Operating state (see file comment). */
enum class VsvState : std::uint8_t
{
    High,
    DownClockDist,
    RampDown,
    Low,
    UpClockDist,
    RampUp,
    NumStates
};

std::string_view vsvStateName(VsvState state);

/** The controller. */
class VsvController : public MissListener
{
  public:
    /** Drives the power ledger's rail `power`. */
    VsvController(const VsvConfig &config, PowerModel::Rail power);

    /**
     * Advance to tick `now`: progress any transition, drive this
     * tick's pipeline VDD into the controller's power rail.
     *
     * @return true when the pipeline clock has an edge this tick
     */
    bool beginTick(Tick now);

    /**
     * Report the number of instructions issued in the pipeline cycle
     * that just executed (call only on ticks with an edge).
     */
    void observeIssueRate(std::uint32_t issued);

    /** Outcome of an idle fast-forward attempt. */
    struct IdleAdvance
    {
        Tick ticks = 0;          ///< global ticks skipped
        std::uint64_t edges = 0; ///< pipeline edges among them
    };

    /**
     * Fast-forward through up to `max_ticks` fully idle ticks
     * starting at `now`, during which the core issues nothing and no
     * memory event fires (the caller guarantees both). Replays
     * exactly what per-tick beginTick()/observeIssueRate(0) calls
     * would have done: state-residency ticks, the half-clock edge
     * schedule, and bulk zero-issue observations into whichever FSM
     * is armed - stopping one observation short of a fire/expire so
     * the settling cycle runs through the normal path. Pipeline
     * edges are additionally capped at `max_edges` (the core's own
     * stall bound). Returns {0,0} mid-transition or whenever nothing
     * can be skipped.
     */
    IdleAdvance advanceIdle(Tick now, Tick max_ticks, Tick max_edges);

    /**
     * Side-effect-free preview of advanceIdle(): what a call with the
     * same arguments would skip. Lockstep fast-forward plans the
     * leader's and every replica's horizon first, takes the minimum,
     * then commits each with advanceIdle(now, min, max_edges) - which
     * is guaranteed to skip exactly `min` ticks because a plan of
     * >= min ticks implies the edge budget admits them.
     */
    IdleAdvance planIdleAdvance(Tick now, Tick max_ticks,
                                Tick max_edges) const;

    /** True in a steady state (High or Low, rail settled): the only
     *  states advanceIdle() can fast-forward through. */
    bool
    inSteadyState() const
    {
        return stateEnd == maxTick && rail.settled();
    }

    // MissListener interface (wired to the memory hierarchy).
    void demandL2MissDetected(Tick when,
                              std::uint32_t outstanding) override;
    void demandL2MissReturned(Tick when,
                              std::uint32_t outstanding) override;

    VsvState state() const { return state_; }
    bool lowPowerPath() const
    {
        return state_ != VsvState::High &&
               state_ != VsvState::DownClockDist;
    }

    /** Ticks spent in each state so far. */
    std::uint64_t ticksInState(VsvState state) const
    {
        return stateTicks[static_cast<std::size_t>(state)].count();
    }
    std::uint64_t downTransitions() const
    {
        return downCount.count();
    }
    std::uint64_t upTransitions() const
    {
        return upCount.count();
    }

    void regStats(StatRegistry &registry, const std::string &prefix) const;

    /**
     * Attach an event sink (nullptr = tracing off, the default).
     * Emits mode-residency, FSM, voltage and clock-divider events;
     * advanceIdle() synthesizes the per-edge FSM observations a
     * per-tick run would have recorded, so traced fast-forward and
     * --no-fast-forward runs produce equivalent event streams
     * (DESIGN.md 5e).
     */
    void setTraceSink(TraceSink *sink) { trace = sink; }

  private:
    void enterState(VsvState next, Tick now);
    void startDownTransition(Tick now);
    void startUpTransition(Tick now);
    /** Deferred-event replay when a stable state is (re)entered. */
    void settleIntoLow(Tick now);
    void settleIntoHigh(Tick now);
    /** Arm the up-FSM; fires immediately when threshold == 0. */
    void armUpFsm(Tick now);

    VsvConfig config;
    PowerModel::Rail power;
    VoltageRail rail;
    IssueMonitorFsm downFsm;
    IssueMonitorFsm upFsm;

    VsvState state_ = VsvState::High;
    Tick lastTick = 0;       ///< most recent tick seen (for FSM fires)
    Tick stateEnd = 0;       ///< tick at which the current phase ends
    std::uint32_t rampTicks; ///< full-swing duration
    bool halfClock = false;
    Tick nextEdge = 0;       ///< next pipeline edge when half-clocked

    /**
     * Outstanding demand L2 misses, mirrored from the hierarchy's
     * authoritative count on every detection and return event (a
     * local increment would drift: demand escalations of prefetched
     * blocks fire a return with no matching detection).
     */
    std::uint32_t outstandingDemand = 0;
    /** A return arrived mid-down-transition; replay on entering Low. */
    bool pendingReturnReplay = false;

    TraceSink *trace = nullptr;
    /** Last values emitted on the vdd/divider counter tracks. */
    double tracedVdd = -1.0;
    std::uint64_t tracedDivider = 0;

    std::array<Counter, static_cast<std::size_t>(VsvState::NumStates)>
        stateTicks;
    Counter downCount;
    Counter upCount;
    Counter detectionsInHigh;
    Counter returnsInLow;
    Counter immediateUpOnLastReturn;
};

} // namespace vsv

#endif // VSV_VSV_CONTROLLER_HH
