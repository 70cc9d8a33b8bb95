#include "simulator.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <span>

#include "common/logging.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{

namespace
{

std::vector<PowerModelConfig>
powerConfigs(std::span<const SimulationOptions> rails)
{
    std::vector<PowerModelConfig> configs;
    configs.reserve(rails.size());
    for (const SimulationOptions &rail : rails)
        configs.push_back(rail.power);
    return configs;
}

} // namespace

Simulator::Simulator(std::span<const SimulationOptions> rails)
    : options(rails.front()), power(powerConfigs(rails))
{
    VSV_ASSERT(!(options.timekeeping && options.stridePrefetch),
               "pick one hardware prefetcher");

    // The shared front-end charges the ledger once per access, which
    // prices it on every rail at that rail's own voltage - from
    // warmup on, so the prefetcher tables' warmup-phase charges land
    // on every rail exactly as a serial run of its config would
    // charge them.
    hierarchy = std::make_unique<MemoryHierarchy>(options.hierarchy,
                                                  power);

    if (options.timekeeping) {
        tk = std::make_unique<TimekeepingPrefetcher>(
            options.tk, options.hierarchy.l1d, power);
        hierarchy->setPrefetcher(tk.get());
    } else if (options.stridePrefetch) {
        stride = std::make_unique<StridePrefetcher>(
            options.stride, options.hierarchy.l1d, power);
        hierarchy->setPrefetcher(stride.get());
    }

    predictor = std::make_unique<BranchPredictor>(options.branch);
    workload = std::make_unique<WorkloadGenerator>(options.profile);
    cpu = std::make_unique<Core>(options.core, *workload, *hierarchy,
                                 *predictor, power);

    // One controller per rail, each driving its own rail of the
    // ledger, and one registry per rail that mirrors the serial layout
    // name for name and in the same insertion order.
    const std::size_t n = rails.size();
    vsvCtrl.reserve(n);
    registry.resize(n);
    results.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
        VSV_ASSERT(rails[r].vsv.enabled == options.vsv.enabled,
                   "lockstep rails must agree on vsv.enabled");
        vsvCtrl.emplace_back(rails[r].vsv, power.rail(r));
        StatRegistry &reg = registry[r];
        power.regStats(reg, "power", r);
        hierarchy->regStats(reg, "mem");
        predictor->regStats(reg, "bpred");
        vsvCtrl[r].regStats(reg, "vsv");
        cpu->regStats(reg, "cpu");
        if (tk)
            tk->regStats(reg, "tk");
        if (stride)
            stride->regStats(reg, "stride");
    }
    // A disabled controller only mirrors the outstanding-miss count,
    // which it never reads: with VSV off the hierarchy reports to no
    // one, and schedules no miss-detect events for it (those events
    // also shorten idle fast-forwards).
    missFanout.rails = vsvCtrl;
    if (options.vsv.enabled)
        hierarchy->setMissListener(&missFanout);

    if (!options.trace.path.empty()) {
        traceSink = std::make_unique<TraceSink>(options.trace.categories);
        power.setTraceSink(traceSink.get());
        vsvCtrl[0].setTraceSink(traceSink.get());
        cpu->setTraceSink(traceSink.get());
        hierarchy->setTraceSink(traceSink.get());
    }
}

Simulator::~Simulator() = default;

namespace
{

/**
 * Poll an abort hook at a coarse stride: cheap enough to sit in the
 * hot loops, frequent enough that a soft timeout lands within
 * milliseconds. The iteration counter (not the tick count) paces the
 * polls so fast-forward jumps cannot starve the check.
 */
class AbortPoller
{
  public:
    explicit AbortPoller(const std::function<bool()> &hook)
        : hook(hook)
    {
    }

    void
    poll(const char *phase)
    {
        if (!hook || (++iterations & 0xfff) != 0)
            return;
        if (hook()) {
            throw SimulationAborted(
                std::string("simulation aborted by abort hook during ") +
                phase);
        }
    }

  private:
    const std::function<bool()> &hook;
    std::uint64_t iterations = 0;
};

/** Ticks spent at or ramping through the low-power path. */
double
lowModeTicks(const VsvController &ctrl)
{
    return static_cast<double>(ctrl.ticksInState(VsvState::Low) +
                               ctrl.ticksInState(VsvState::RampDown) +
                               ctrl.ticksInState(VsvState::UpClockDist) +
                               ctrl.ticksInState(VsvState::RampUp));
}

} // namespace

void
Simulator::functionalWarmup()
{
    AbortPoller poller(options.abortHook);
    hierarchy->setWarmupMode(true);

    // Pre-touch the resident regions the way the paper's fast-forward
    // does implicitly over two billion instructions (the hot and warm
    // data regions into L1/L2 and the code loop into the L1I, so the
    // measured window sees no cold misses for data that is
    // steady-state resident), then stream the warmup instructions.
    const WorkloadProfile &profile = options.profile;
    for (Addr offset = 0; offset < profile.hotFootprint; offset += 32) {
        hierarchy->warmupDataAccess(WorkloadRegions::hot + offset, false,
                                    warmupTicks++);
    }
    for (Addr offset = 0; offset < profile.warmFootprint; offset += 32) {
        hierarchy->warmupDataAccess(WorkloadRegions::warm + offset, false,
                                    warmupTicks++);
    }
    for (Addr offset = 0; offset < profile.codeFootprint; offset += 32) {
        hierarchy->warmupInstAccess(WorkloadRegions::code + offset,
                                    warmupTicks++);
    }
    // Advance one tick per instruction so the Time-Keeping decay logic
    // sees time pass at roughly the measured-phase rate. The ops are
    // read in place from the generator's batch buffer.
    //
    // Consecutive pcs mostly share an L1I block. Only instruction
    // fetches read or change the L1I here, so the fetches after the
    // first of a run are the same hits whenever they are applied:
    // they are counted, and applied in one step when the run ends.
    const Addr inst_block_mask =
        ~static_cast<Addr>(options.hierarchy.l1i.blockBytes - 1);
    Addr run_pc = 0;
    Addr run_block = invalidAddr;  // never block-aligned: no run yet
    std::uint64_t run_repeats = 0;
    std::uint64_t remaining = options.warmupInstructions;
    while (remaining != 0) {
        const std::span<const MicroOp> ops = workload->nextBatch(remaining);
        remaining -= ops.size();
        for (const MicroOp &op : ops) {
            poller.poll("warmup");
            const Tick now = warmupTicks++;

            if ((op.pc & inst_block_mask) == run_block) {
                ++run_repeats;
            } else {
                if (run_repeats != 0)
                    hierarchy->warmupInstRepeats(run_pc, run_repeats);
                run_pc = op.pc;
                run_block = op.pc & inst_block_mask;
                run_repeats = 0;
                hierarchy->warmupInstAccess(op.pc, now);
            }
            if (isMemOp(op.cls)) {
                hierarchy->warmupDataAccess(
                    op.addr, op.cls == OpClass::Store, now);
            } else if (op.cls == OpClass::Branch) {
                const BranchPrediction pred = predictor->predict(op);
                predictor->resolve(op, pred);
            }
            if (tk)
                tk->tick(now);
        }
    }
    if (run_repeats != 0)
        hierarchy->warmupInstRepeats(run_pc, run_repeats);
    hierarchy->setWarmupMode(false);
}

void
Simulator::warmup()
{
    if (warmedUp_)
        return;
    VSV_ASSERT(!ran, "Simulator::warmup() after run()");
    functionalWarmup();
    warmedUp_ = true;
}

SnapshotBytes
Simulator::snapshot(std::string_view fingerprint) const
{
    VSV_ASSERT(warmedUp_ && !ran,
               "snapshot() needs warmed-up, not-yet-run state");
    SnapshotWriter writer(fingerprint);

    writer.begin("sim");
    // Format 3 keeps the retired core-count word; it is always 1.
    writer.u32(1);
    writer.str(options.profile.name);
    writer.u64(options.warmupInstructions);
    writer.u64(warmupTicks);
    writer.b(options.timekeeping);
    writer.b(options.stridePrefetch);
    // Format 3 keeps the retired trace-replay flag; it is always false.
    writer.b(false);
    writer.end();

    power.snapshot(writer);
    hierarchy->snapshot(writer);
    predictor->snapshot(writer);
    if (tk)
        tk->snapshot(writer);
    if (stride)
        stride->snapshot(writer);
    workload->snapshot(writer);
    return writer.finish();
}

void
Simulator::restoreFrom(std::string_view bytes,
                       std::string_view expected_fingerprint)
{
    VSV_ASSERT(!warmedUp_ && !ran,
               "restoreFrom() needs a freshly constructed simulator");
    VSV_ASSERT(railCount() == 1,
               "lockstep rails always warm up fresh; restoring a "
               "snapshot into a batched simulator is unsupported");
    try {
        SnapshotReader reader(bytes);
        if (!expected_fingerprint.empty() &&
            reader.fingerprint() != expected_fingerprint) {
            throw SnapshotError(
                "snapshot: warmup fingerprint mismatch (snapshot " +
                reader.fingerprint() + ", this configuration " +
                std::string(expected_fingerprint) + ")");
        }

        reader.begin("sim");
        // Format 3 keeps the retired core-count word; it is always 1.
        reader.expectU32(1, "core count");
        const std::string name = reader.str();
        if (name != options.profile.name) {
            throw SnapshotError("snapshot: profile mismatch ('" + name +
                                "' vs '" + options.profile.name + "')");
        }
        reader.expectU64(options.warmupInstructions,
                         "warmup instruction count");
        const Tick snapshot_warmup_ticks = reader.u64();
        const bool snap_tk = reader.b();
        const bool snap_stride = reader.b();
        // Format 3 keeps the retired trace-replay flag; only false is
        // valid.
        const bool snap_trace = reader.b();
        reader.end();
        if (snap_tk != options.timekeeping ||
            snap_stride != options.stridePrefetch ||
            snap_trace) {
            throw SnapshotError(
                "snapshot: prefetcher/source wiring mismatch");
        }

        power.restore(reader);
        hierarchy->restore(reader);
        predictor->restore(reader);
        if (tk)
            tk->restore(reader);
        if (stride)
            stride->restore(reader);
        workload->restore(reader);
        reader.expectEnd();
        warmupTicks = snapshot_warmup_ticks;
    } catch (const SnapshotError &e) {
        fatal(std::string("warmup snapshot unusable: ") + e.what());
    }
    warmedUp_ = true;
}

SimulationResult
Simulator::run()
{
    VSV_ASSERT(!ran, "Simulator::run() may only be called once");

    warmup();
    ran = true;

    // Snapshot the warmup's contribution so results are pure deltas.
    const std::size_t rails = railCount();
    std::vector<double> energy0(rails);
    for (std::size_t r = 0; r < rails; ++r)
        energy0[r] = power.totalEnergyPj(r);
    const std::uint64_t misses0 = hierarchy->demandL2MissCount();

    const std::uint64_t target = options.measureInstructions;
    const Tick start = warmupTicks;
    Tick now = start;

    // Deadlock guard: even mcf at IPC ~0.29 needs ~7 ticks per
    // instruction at half clock; 1000x is unambiguous breakage.
    const Tick limit = start + 64 + 1000 * options.measureInstructions;

    // Fast-forward state. lastIssued starts nonzero so the first
    // measured tick always takes the per-tick path (closing any
    // power accesses left open by warmup); afterwards a fast-forward
    // is attempted only while the last pipeline cycle issued nothing.
    std::uint32_t lastIssued = 1;
    Tick ffTicks = 0;

    // Interval-stats sampler: constructed here (not in the ctor) so
    // the baselines exclude warmup, like every other result delta.
    if (traceSink && options.trace.intervalTicks > 0 &&
        traceSink->wants(TraceCategory::Interval)) {
        std::vector<std::string> scalars = {"cpu.committed", "cpu.issued",
                                            "mem.demandL2Misses"};
        scalars.insert(scalars.end(),
                       options.trace.intervalScalars.begin(),
                       options.trace.intervalScalars.end());
        sampler = std::make_unique<IntervalStatsSampler>(
            *traceSink, registry[0], options.trace.intervalTicks, scalars,
            start);
        sampler->setEnergyProbe(
            [this] { return power.peekTotalEnergyPj(); });
    }

    // Nothing snapshots the ledger from here on.
    power.stopCountingAccesses();

    const auto wallStart = std::chrono::steady_clock::now();

    AbortPoller poller(options.abortHook);
    while (cpu->committedInstructions() < target) {
        poller.poll("measurement");
        if (sampler && now >= sampler->nextSampleAt())
            sampler->sample(now);

        // Idle-tick fast-forward: with every rail's controller in a
        // steady state, no memory event due, and the core provably
        // unable to make progress, the upcoming ticks are pure
        // bookkeeping - apply it in bulk and jump. Exact by
        // construction (DESIGN.md §5d); `--no-fast-forward` runs the
        // loop below for every tick instead.
        if (options.fastForward) {
            bool idle = lastIssued == 0;
            for (std::size_t r = 0; r < rails && idle; ++r)
                idle = vsvCtrl[r].inSteadyState();
            const Tick nextEv = idle ? hierarchy->nextEventTick() : Tick{0};
            const Cycle ffBudget =
                idle && nextEv > now ? cpu->cyclesUntilProgress() : 0;
            if (ffBudget > 0) {
                Tick jump = std::min(nextEv - now, limit - now);
                if (tk) {
                    // tk->tick() is a strict no-op before its next
                    // decay sweep; never skip across one.
                    const Tick sweep = tk->nextSweepAt();
                    jump = std::min(jump,
                                    sweep > now ? sweep - now : Tick{0});
                }
                if (sampler) {
                    // Epoch boundaries land on exact ticks whether or
                    // not fast-forward is on (DESIGN.md §5e).
                    jump = std::min(jump, sampler->nextSampleAt() - now);
                }
                // The jump is the minimum across the rails, which all
                // share the one stall bound: the pipeline they pace is
                // the shared one.
                for (std::size_t r = 0; r < rails && jump > 0; ++r) {
                    jump = std::min(
                        jump,
                        vsvCtrl[r].planIdleAdvance(now, jump, ffBudget)
                            .ticks);
                }
                if (jump > 0) {
                    // Each rail's controller commits its own idle run;
                    // the rails share one edge schedule, so the ledger
                    // banks the span once for all of them.
                    VsvController::IdleAdvance adv;
                    for (std::size_t r = 0; r < rails; ++r) {
                        const VsvController::IdleAdvance railAdv =
                            vsvCtrl[r].advanceIdle(now, jump, ffBudget);
                        VSV_ASSERT(railAdv.ticks == jump,
                                   "idle commit shorter than plan");
                        if (r != 0 && railAdv.edges != adv.edges) {
                            fatal("lockstep replica edge schedule "
                                  "diverged from the leader at tick " +
                                  std::to_string(now));
                        }
                        adv = railAdv;
                    }
                    if (traceSink) {
                        traceSink->record(TraceCategory::FastForward,
                                          TraceEventKind::IdleSpan, now,
                                          adv.ticks, adv.edges);
                    }
                    cpu->skipIdleCycles(adv.edges);
                    power.accrueIdleTicks(adv.edges, adv.ticks - adv.edges);
                    ffTicks += jump;
                    now += jump;
                    continue;
                }
            }
        }

        hierarchy->service(now);
        // Every rail advances its clock and voltage *before* the
        // shared pipeline cycle runs, so the cycle's access energy is
        // priced at each rail's tick-correct VDD. A rail whose
        // pipeline-edge schedule diverges from the leader's would need
        // the shared stream at a different rate - batch formation
        // should have prevented that, so it is a fatal() (throwable
        // inside a sweep worker, where the batch is re-run serially).
        bool edge = false;
        for (std::size_t r = 0; r < rails; ++r) {
            const bool railEdge = vsvCtrl[r].beginTick(now);
            if (r != 0 && railEdge != edge) {
                fatal("lockstep replica edge schedule diverged from the "
                      "leader at tick " +
                      std::to_string(now));
            }
            edge = railEdge;
        }
        if (edge) {
            const std::uint32_t issued = cpu->cycle(now);
            for (VsvController &c : vsvCtrl)
                c.observeIssueRate(issued);
            lastIssued = issued;
        }
        if (tk)
            tk->tick(now);
        power.tick(edge);
        ++now;
        if (now >= limit) {
            panic("simulation deadlock: " +
                  std::to_string(cpu->committedInstructions()) + "/" +
                  std::to_string(target) + " instructions after " +
                  std::to_string(now - start) + " ticks (" +
                  options.profile.name + ")");
        }
    }

    const auto wallEnd = std::chrono::steady_clock::now();

    if (sampler)
        sampler->finish(now);

    // Convert any idle ticks still banked on the rails so the
    // registered Scalars (read directly by stats dumps) are final.
    power.flushIdle();

    // The front-end and timing fields are shared by every rail (that
    // sharing is exactly what batch formation proved legal); only the
    // power/VSV accounting is per rail.
    SimulationResult shared;
    shared.benchmark = options.profile.name;
    shared.ticks = now - start;
    const auto ticks_d = static_cast<double>(shared.ticks);

    shared.instructions = cpu->committedInstructions();
    shared.pipelineCycles = cpu->pipelineCycles();
    shared.ipc = static_cast<double>(shared.instructions) / ticks_d;
    shared.mr = 1000.0 *
                static_cast<double>(hierarchy->demandL2MissCount() -
                                    misses0) /
                static_cast<double>(shared.instructions);

    shared.wallSeconds =
        std::chrono::duration<double>(wallEnd - wallStart).count();
    shared.kinstPerSec =
        shared.wallSeconds > 0.0
            ? static_cast<double>(shared.instructions) /
                  shared.wallSeconds / 1e3
            : 0.0;
    shared.fastForwardedTicks = ffTicks;
    shared.ffTickFraction = static_cast<double>(ffTicks) /
                            static_cast<double>(shared.ticks);

    for (std::size_t r = 0; r < rails; ++r) {
        SimulationResult &result = results[r];
        result = shared;
        result.downTransitions = vsvCtrl[r].downTransitions();
        result.upTransitions = vsvCtrl[r].upTransitions();
        result.energyPj = power.totalEnergyPj(r) - energy0[r];
        result.avgPowerW = result.energyPj / ticks_d * 1e-3;
        result.lowModeFraction = lowModeTicks(vsvCtrl[r]) / ticks_d;
    }

    if (traceSink) {
        std::ofstream os(options.trace.path,
                         std::ios::out | std::ios::trunc);
        if (!os) {
            panic("cannot open trace output file: " +
                  options.trace.path);
        }
        traceSink->writeChromeJson(os, start, now);
        os.flush();
        if (!os) {
            panic("error writing trace output file: " +
                  options.trace.path);
        }
    }
    return results[0];
}

} // namespace vsv
