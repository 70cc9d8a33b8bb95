#include "controller.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace vsv
{

// The trace layer names FsmObserve outcomes by their numeric value
// without including VSV headers; keep the protocol in sync.
static_assert(static_cast<std::uint8_t>(MonitorOutcome::Idle) == 0 &&
              static_cast<std::uint8_t>(MonitorOutcome::Watching) == 1 &&
              static_cast<std::uint8_t>(MonitorOutcome::Fired) == 2 &&
              static_cast<std::uint8_t>(MonitorOutcome::Expired) == 3,
              "MonitorOutcome values are part of the trace protocol");

namespace
{

constexpr std::uint64_t
observePayload(std::uint32_t issued, MonitorOutcome outcome)
{
    return packFsmObserve(issued, static_cast<std::uint8_t>(outcome));
}

} // namespace

std::string_view
vsvStateName(VsvState state)
{
    switch (state) {
      case VsvState::High:          return "high";
      case VsvState::DownClockDist: return "downClockDist";
      case VsvState::RampDown:      return "rampDown";
      case VsvState::Low:           return "low";
      case VsvState::UpClockDist:   return "upClockDist";
      case VsvState::RampUp:        return "rampUp";
      default:                      break;
    }
    panic("bad VSV state");
}

VsvController::VsvController(const VsvConfig &config,
                             PowerModel::Rail power)
    : config(config),
      power(power),
      rail(config.vddHigh, config.slewVoltsPerTick),
      downFsm(config.down, /*count_zero_issue=*/true),
      upFsm(config.up, /*count_zero_issue=*/false),
      stateEnd(maxTick)
{
    VSV_ASSERT(config.vddLow < config.vddHigh,
               "VDDL must be below VDDH");
    rampTicks = rail.swingTicks(config.vddLow, config.vddHigh);
    VSV_ASSERT(rampTicks > 0, "zero-length VDD ramp");
    // A divider of 1 would clock the pipeline at full rate while the
    // rail sits at VDDL - the functionality fault the whole design
    // exists to avoid.
    VSV_ASSERT(config.clockDivider >= 2,
               "low-mode clock divider must be at least 2");
}

void
VsvController::startDownTransition(Tick now)
{
    VSV_ASSERT(state_ == VsvState::High,
               "down transition outside the high-power mode");
    if (trace && downFsm.armed()) {
        trace->record(TraceCategory::Fsm, TraceEventKind::FsmDisarm,
                      now, traceFsmDown);
    }
    downFsm.disarm();
    ++downCount;
    enterState(VsvState::DownClockDist, now);
}

void
VsvController::startUpTransition(Tick now)
{
    VSV_ASSERT(state_ == VsvState::Low,
               "up transition outside the low-power mode");
    if (trace && upFsm.armed()) {
        trace->record(TraceCategory::Fsm, TraceEventKind::FsmDisarm,
                      now, traceFsmUp);
    }
    upFsm.disarm();
    ++upCount;
    enterState(VsvState::UpClockDist, now);
}

void
VsvController::enterState(VsvState next, Tick now)
{
    state_ = next;
    if (trace) {
        trace->record(TraceCategory::Mode, TraceEventKind::ModeEnter,
                      now, trace->internString(vsvStateName(next)));
        // The pipeline sees full-speed edges until the divided clock
        // reaches the tree's leaves, so the effective divider changes
        // on RampDown entry (down) and High entry (up).
        const std::uint64_t divider =
            (next == VsvState::High || next == VsvState::DownClockDist)
                ? 1
                : config.clockDivider;
        if (divider != tracedDivider) {
            trace->record(TraceCategory::Clock,
                          TraceEventKind::ClockDivider, now, divider);
            tracedDivider = divider;
        }
    }
    switch (next) {
      case VsvState::DownClockDist:
        // The divider switches now; the slower clock needs 2 ns of
        // control distribution plus 2 ns of tree propagation before
        // the leaves see it. Full speed, VDDH meanwhile.
        stateEnd = now + config.ctrlDistTicks + config.clockTreeTicks;
        break;
      case VsvState::RampDown:
        rail.rampTo(config.vddLow);
        power.addRampEnergy(now);
        stateEnd = now + rampTicks;
        nextEdge = now;  // first half-speed cycle starts immediately
        break;
      case VsvState::Low:
        stateEnd = maxTick;
        settleIntoLow(now);
        break;
      case VsvState::UpClockDist:
        stateEnd = now + config.ctrlDistTicks;
        break;
      case VsvState::RampUp:
        rail.rampTo(config.vddHigh);
        power.addRampEnergy(now);
        // The full-speed clock-tree distribution overlaps the last
        // 2 ns of the ramp (Section 3.4), so no extra time after it.
        stateEnd = now + rampTicks;
        break;
      case VsvState::High:
        stateEnd = maxTick;
        settleIntoHigh(now);
        break;
      default:
        panic("bad VSV state transition");
    }
}

void
VsvController::settleIntoLow(Tick now)
{
    if (!pendingReturnReplay)
        return;
    // One or more demand misses returned while the down transition
    // was in flight; apply the low-to-high policy as if the (latest)
    // return had just happened.
    pendingReturnReplay = false;
    if (outstandingDemand == 0) {
        ++immediateUpOnLastReturn;
        startUpTransition(now);
        return;
    }
    switch (config.upPolicy) {
      case UpPolicy::FirstR:
        startUpTransition(now);
        break;
      case UpPolicy::LastR:
        break;
      case UpPolicy::Fsm:
        armUpFsm(now);
        break;
    }
}

void
VsvController::settleIntoHigh(Tick now)
{
    // A demand miss detected during the up transition could not arm
    // the down path; if demand misses are still outstanding, treat
    // re-entry into High as the detection point so the opportunity
    // is not silently lost.
    if (outstandingDemand == 0 || !config.enabled)
        return;
    if (config.down.threshold == 0) {
        startDownTransition(now);
    } else if (!downFsm.armed()) {
        downFsm.arm();
        if (trace) {
            trace->record(TraceCategory::Fsm, TraceEventKind::FsmArm,
                          now, traceFsmDown);
        }
    }
}

/**
 * Arm the up-FSM (recording the arm event) and start the transition
 * immediately when the threshold-0 configuration fires on arm.
 */
void
VsvController::armUpFsm(Tick now)
{
    if (upFsm.armed())
        return;
    if (trace) {
        trace->record(TraceCategory::Fsm, TraceEventKind::FsmArm, now,
                      traceFsmUp);
    }
    if (upFsm.arm()) {
        // threshold == 0: fired on arm, with zero observations.
        if (trace) {
            trace->record(TraceCategory::Fsm, TraceEventKind::FsmObserve,
                          now, traceFsmUp,
                          observePayload(0, MonitorOutcome::Fired));
        }
        startUpTransition(now);
    }
}

bool
VsvController::beginTick(Tick now)
{
    lastTick = now;

    // Advance through any timed phases that end at or before now.
    while (now >= stateEnd) {
        const Tick boundary = stateEnd;
        switch (state_) {
          case VsvState::DownClockDist:
            enterState(VsvState::RampDown, boundary);
            break;
          case VsvState::RampDown:
            enterState(VsvState::Low, boundary);
            break;
          case VsvState::UpClockDist:
            enterState(VsvState::RampUp, boundary);
            break;
          case VsvState::RampUp:
            enterState(VsvState::High, boundary);
            break;
          default:
            panic("timed phase in a steady state");
        }
    }

    ++stateTicks[static_cast<std::size_t>(state_)];

    // Drive this tick's pipeline voltage (average across the tick
    // while ramping, per Section 5.2) and latch-set selection.
    const double vdd = rail.advance();
    power.setSupply(vdd, lowPowerPath());
    if (trace) {
        if (vdd != tracedVdd) {
            trace->record(TraceCategory::Power,
                          TraceEventKind::VddChange, now,
                          std::bit_cast<std::uint64_t>(vdd));
            tracedVdd = vdd;
        }
        if (tracedDivider == 0) {
            // First traced tick: seed the divider counter track and
            // open the initial mode slice (enterState only records
            // transitions, so the pre-transition residency would
            // otherwise be invisible).
            tracedDivider = lowPowerPath() ? config.clockDivider : 1;
            trace->record(TraceCategory::Clock,
                          TraceEventKind::ClockDivider, now,
                          tracedDivider);
            trace->record(TraceCategory::Mode,
                          TraceEventKind::ModeEnter, now,
                          trace->internString(vsvStateName(state_)));
        }
    }

    // Pipeline clock: full speed in High/DownClockDist, half speed
    // everywhere else.
    const bool full_speed = state_ == VsvState::High ||
                            state_ == VsvState::DownClockDist;
    if (full_speed)
        return true;
    if (now >= nextEdge) {
        nextEdge = now + config.clockDivider;
        return true;
    }
    return false;
}

VsvController::IdleAdvance
VsvController::planIdleAdvance(Tick now, Tick max_ticks,
                               Tick max_edges) const
{
    if (!inSteadyState() || max_ticks == 0)
        return {};
    VSV_ASSERT(state_ == VsvState::High || state_ == VsvState::Low,
               "steady state must be High or Low");

    // Edge budget: an armed FSM absorbs zero-issue observations until
    // it settles; leave the settling observation to the per-tick path
    // (it starts a transition or disarms - neither is replayable in
    // bulk).
    Tick edge_budget = max_edges;
    if (config.enabled) {
        const IssueMonitorFsm &fsm =
            state_ == VsvState::High ? downFsm : upFsm;
        if (fsm.armed()) {
            edge_budget = std::min<Tick>(edge_budget,
                                         fsm.observationsUntilSettled() - 1);
        }
    }

    Tick ticks = 0;
    std::uint64_t edges = 0;
    if (state_ == VsvState::High) {
        // Full-speed clock: every tick is an edge.
        ticks = std::min(max_ticks, edge_budget);
        edges = ticks;
    } else {
        // Half clock: edges at max(now, nextEdge) + k*divider. Cap
        // the advance so at most edge_budget edges fall inside it.
        const Tick d = config.clockDivider;
        const Tick to_first = nextEdge > now ? nextEdge - now : 0;
        Tick span = maxTick;
        if (edge_budget < (maxTick - to_first) / d)
            span = to_first + edge_budget * d;
        ticks = std::min(max_ticks, span);
        if (ticks > to_first)
            edges = 1 + (ticks - to_first - 1) / d;
    }
    return {ticks, edges};
}

VsvController::IdleAdvance
VsvController::advanceIdle(Tick now, Tick max_ticks, Tick max_edges)
{
    const IdleAdvance plan = planIdleAdvance(now, max_ticks, max_edges);
    if (plan.ticks == 0)
        return {};

    Tick first_edge = now; ///< tick of the first skipped edge
    Tick edge_step = 1;    ///< tick distance between skipped edges
    if (state_ == VsvState::Low) {
        const Tick d = config.clockDivider;
        const Tick to_first = nextEdge > now ? nextEdge - now : 0;
        if (plan.edges > 0)
            nextEdge = now + to_first + plan.edges * d;
        first_edge = now + to_first;
        edge_step = d;
    }

    stateTicks[static_cast<std::size_t>(state_)] += plan.ticks;
    if (config.enabled && plan.edges > 0) {
        const bool high = state_ == VsvState::High;
        const IssueMonitorFsm &fsm = high ? downFsm : upFsm;
        if (trace && fsm.armed()) {
            // Synthesize the per-edge zero-issue observations the
            // per-tick path would have recorded. The edge budget
            // stops one observation short of settling, so every
            // synthesized outcome is Watching (DESIGN.md 5e).
            const std::uint64_t which =
                high ? traceFsmDown : traceFsmUp;
            for (std::uint64_t i = 0; i < plan.edges; ++i) {
                trace->record(
                    TraceCategory::Fsm, TraceEventKind::FsmObserve,
                    first_edge + i * edge_step, which,
                    observePayload(0, MonitorOutcome::Watching));
            }
        }
        if (high)
            downFsm.observeIdleRun(plan.edges);
        else
            upFsm.observeIdleRun(plan.edges);
    }
    lastTick = now + plan.ticks - 1;
    return plan;
}

void
VsvController::observeIssueRate(std::uint32_t issued)
{
    if (!config.enabled)
        return;

    if (state_ == VsvState::High && downFsm.armed()) {
        const MonitorOutcome outcome = downFsm.observe(issued);
        if (trace) {
            trace->record(TraceCategory::Fsm, TraceEventKind::FsmObserve,
                          lastTick, traceFsmDown,
                          observePayload(issued, outcome));
        }
        if (outcome == MonitorOutcome::Fired)
            startDownTransition(lastTick);
    } else if (state_ == VsvState::Low && upFsm.armed()) {
        const MonitorOutcome outcome = upFsm.observe(issued);
        if (trace) {
            trace->record(TraceCategory::Fsm, TraceEventKind::FsmObserve,
                          lastTick, traceFsmUp,
                          observePayload(issued, outcome));
        }
        if (outcome == MonitorOutcome::Fired)
            startUpTransition(lastTick);
    }
}

void
VsvController::demandL2MissDetected(Tick when, std::uint32_t outstanding)
{
    lastTick = when;
    // Mirror the hierarchy's authoritative count (see controller.hh);
    // a local increment would drift when a prefetched block's demand
    // escalation later returns without a matching detection.
    outstandingDemand = outstanding;
    if (!config.enabled || state_ != VsvState::High)
        return;

    ++detectionsInHigh;
    if (config.down.threshold == 0) {
        // No down-FSM: transition on every demand miss (the paper's
        // "without FSMs" configuration).
        startDownTransition(when);
    } else if (!downFsm.armed()) {
        downFsm.arm();
        if (trace) {
            trace->record(TraceCategory::Fsm, TraceEventKind::FsmArm,
                          when, traceFsmDown);
        }
    }
}

void
VsvController::demandL2MissReturned(Tick when, std::uint32_t outstanding)
{
    lastTick = when;
    outstandingDemand = outstanding;
    if (!config.enabled)
        return;

    switch (state_) {
      case VsvState::Low:
        ++returnsInLow;
        if (outstanding == 0) {
            // Section 4.4: with a single outstanding miss, switch as
            // soon as it returns - under every policy.
            ++immediateUpOnLastReturn;
            startUpTransition(when);
            return;
        }
        switch (config.upPolicy) {
          case UpPolicy::FirstR:
            startUpTransition(when);
            break;
          case UpPolicy::LastR:
            break;
          case UpPolicy::Fsm:
            armUpFsm(when);
            break;
        }
        break;

      case VsvState::DownClockDist:
      case VsvState::RampDown:
        pendingReturnReplay = true;
        break;

      default:
        break;
    }
}

void
VsvController::regStats(StatRegistry &registry,
                        const std::string &prefix) const
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(VsvState::NumStates); ++i) {
        registry.registerScalar(
            prefix + ".ticks." +
                std::string(vsvStateName(static_cast<VsvState>(i))),
            &stateTicks[i], "ticks spent in this state");
    }
    registry.registerScalar(prefix + ".downTransitions", &downCount,
                            "high-to-low transitions started");
    registry.registerScalar(prefix + ".upTransitions", &upCount,
                            "low-to-high transitions started");
    registry.registerScalar(prefix + ".detectionsInHigh",
                            &detectionsInHigh,
                            "demand miss detections seen in High");
    registry.registerScalar(prefix + ".returnsInLow", &returnsInLow,
                            "demand miss returns seen in Low");
    registry.registerScalar(prefix + ".lastReturnUps",
                            &immediateUpOnLastReturn,
                            "up transitions on the last return");
    downFsm.regStats(registry, prefix + ".downFsm");
    upFsm.regStats(registry, prefix + ".upFsm");
}

} // namespace vsv
