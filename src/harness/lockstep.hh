/**
 * @file
 * Config-parallel lockstep execution (DESIGN.md §5h): batch M sweep
 * configs whose *timing* is provably identical into one Simulator
 * that generates/decodes the micro-op stream, predicts branches and
 * simulates the caches once, stepping M lightweight per-config
 * replicas (VsvController + PowerModel + rail state) against the
 * shared event trace.
 *
 * What may batch: configs that differ only in knobs that change
 * energy *accounting*, never cycle-level behaviour - the whole
 * PowerModelConfig, plus the VSV rail voltages and slew rate as long
 * as the derived ramp duration (swing / slew, rounded) is unchanged.
 * With VSV off, every VSV knob and the L2 miss-detect latency are
 * dead (the controller never leaves High), so baselines batch across
 * them too. Everything else - workload, windows, prefetchers, machine
 * geometry, and with VSV on its thresholds/periods/divider/policy/
 * circuit ticks and the detect latency - is timing-relevant and lives
 * in the structural fingerprint, so configs differing there land in
 * separate batches. Note the conservatism is
 * real, not theoretical: VSV *does* change cache-hit counts between
 * baseline and FSM runs (the half-clock schedule shifts which tick a
 * miss is issued on), so the Figure-4 base/no-fsm/fsm axis can never
 * share a batch; the win is on power-characterization grids (gating
 * style/efficiency, idle/leakage fractions, ramp energy, rail
 * voltage levels) where one front-end feeds the whole grid.
 *
 * Fallback: any failure inside a batch - including the runtime
 * edge-schedule divergence check in Simulator - re-runs every member
 * serially through the normal isolated path, so lockstep can make a
 * sweep faster but never less correct or less fault-tolerant.
 */

#ifndef VSV_HARNESS_LOCKSTEP_HH
#define VSV_HARNESS_LOCKSTEP_HH

#include <cstddef>
#include <vector>

#include "harness/sweep.hh"

namespace vsv
{

/**
 * Why a job cannot join a lockstep batch, or nullptr when it can.
 * The reasons are stable strings (manifest keys): "event-tracing",
 * "soft-timeout", "abort-hook".
 */
const char *lockstepIneligibleReason(const SweepJob &job);

/** One planned batch: indices into the job vector, submission order;
 *  members[0] is the leader (always >= 2 members). */
struct LockstepBatch
{
    std::vector<std::size_t> members;
};

/** How a grid was split into batches and serial remainders. */
struct LockstepPlan
{
    std::vector<LockstepBatch> batches;
    /** Jobs that run serially: ineligible, or in a group of one. */
    std::vector<std::size_t> serial;
};

/**
 * Group `jobs` by structural fingerprint, chunk each group to at most
 * `maxReplicas` members per batch, and record eligibility counters
 * into `stats` (batch/fallback counters are filled in by the runner).
 * maxReplicas < 2 plans everything serial.
 */
LockstepPlan planLockstep(const std::vector<SweepJob> &jobs,
                          unsigned maxReplicas, LockstepStats &stats);

/**
 * Execute one batch: leader simulator + one replica per remaining
 * member, one shared warmup (always fresh - a batch already
 * deduplicates its members' warmups by construction), one measured
 * window. Returns outcomes in member order, each carrying the same
 * result/scalars/stats dumps a serial run of that config produces,
 * bit for bit. No fault isolation here: exceptions and (throwing)
 * fatal() propagate, and the caller falls back to serial execution.
 */
std::vector<SweepOutcome>
runLockstepBatch(const std::vector<SweepJob> &jobs,
                 const std::vector<std::size_t> &members);

} // namespace vsv

#endif // VSV_HARNESS_LOCKSTEP_HH
