#include "simulator.hh"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "common/logging.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{

Simulator::Simulator(const SimulationOptions &options)
    : options(options)
{
    VSV_ASSERT(!(options.timekeeping && options.stridePrefetch),
               "pick one hardware prefetcher");

    power = std::make_unique<PowerModel>(options.power);
    hierarchy = std::make_unique<MemoryHierarchy>(options.hierarchy, *power);

    if (options.timekeeping) {
        tk = std::make_unique<TimekeepingPrefetcher>(
            options.tk, options.hierarchy.l1d, *power);
        hierarchy->setPrefetcher(tk.get());
    } else if (options.stridePrefetch) {
        stride = std::make_unique<StridePrefetcher>(
            options.stride, options.hierarchy.l1d, *power);
        hierarchy->setPrefetcher(stride.get());
    }

    predictor = std::make_unique<BranchPredictor>(options.branch);
    workload = std::make_unique<WorkloadGenerator>(options.profile);
    vsvCtrl = std::make_unique<VsvController>(options.vsv, *power);
    hierarchy->setMissListener(vsvCtrl.get());
    cpu = std::make_unique<Core>(options.core, *workload, *hierarchy,
                                 *predictor, *power);

    if (!options.trace.path.empty()) {
        traceSink = std::make_unique<TraceSink>(options.trace.categories);
        power->setTraceSink(traceSink.get());
        vsvCtrl->setTraceSink(traceSink.get());
        cpu->setTraceSink(traceSink.get());
        hierarchy->setTraceSink(traceSink.get());
    }

    power->regStats(registry, "power");
    hierarchy->regStats(registry, "mem");
    predictor->regStats(registry, "bpred");
    vsvCtrl->regStats(registry, "vsv");
    cpu->regStats(registry, "cpu");
    if (tk)
        tk->regStats(registry, "tk");
    if (stride)
        stride->regStats(registry, "stride");
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
    // sees time pass at roughly the measured-phase rate.
    for (std::uint64_t i = 0; i < options.warmupInstructions; ++i) {
        poller.poll("warmup");
        const MicroOp op = workload->next();
        const Tick now = warmupTicks++;

        hierarchy->warmupInstAccess(op.pc, now);
        if (isMemOp(op.cls)) {
            hierarchy->warmupDataAccess(op.addr, op.cls == OpClass::Store,
                                        now);
        } else if (op.cls == OpClass::Branch) {
            const BranchPrediction pred = predictor->predict(op);
            predictor->resolve(op, pred);
        }
        if (tk)
            tk->tick(now);
    }
    hierarchy->setWarmupMode(false);
}

void
Simulator::addReplica(const PowerModelConfig &power, const VsvConfig &vsv)
{
    VSV_ASSERT(!warmedUp_ && !ran,
               "addReplica() must precede warmup()/run()");
    replicaConfigs.push_back({power, vsv});
}

void
Simulator::materializeReplicas()
{
    if (replicaConfigs.empty() || !replicaPower.empty())
        return;

    const std::size_t m = replicaConfigs.size();
    // Exact reserve: VsvController holds a PowerModel&, so the arena
    // vectors must never reallocate once a reference is taken.
    replicaPower.reserve(m);
    replicaCtrl.reserve(m);
    replicaPowerPtrs.reserve(m);
    replicaRegistries.resize(m);
    for (const ReplicaConfig &rc : replicaConfigs)
        replicaPower.emplace_back(rc.power);
    for (std::size_t r = 0; r < m; ++r) {
        replicaCtrl.emplace_back(replicaConfigs[r].vsv, replicaPower[r]);
        replicaPowerPtrs.push_back(&replicaPower[r]);
    }

    // Fan the shared front-end's power activity out to every replica
    // model (each charges at its own voltage), and the hierarchy's
    // L2-miss events out to every replica controller after the
    // leader's - installed *before* warmup so warmup-phase charges
    // (the prefetcher tables train during warmup) land on every
    // replica exactly as a serial run of that config would charge
    // them.
    power->setFanout(replicaPowerPtrs.data(), m);
    missFanout = std::make_unique<MissFanout>();
    missFanout->targets.push_back(vsvCtrl.get());
    for (VsvController &ctrl : replicaCtrl)
        missFanout->targets.push_back(&ctrl);
    hierarchy->setMissListener(missFanout.get());

    // Per-replica registries mirror the serial layout name for name
    // and in the same insertion order, substituting the replica's own
    // power model and controller for the leader's.
    for (std::size_t r = 0; r < m; ++r) {
        StatRegistry &reg = replicaRegistries[r];
        replicaPower[r].regStats(reg, "power");
        hierarchy->regStats(reg, "mem");
        predictor->regStats(reg, "bpred");
        replicaCtrl[r].regStats(reg, "vsv");
        cpu->regStats(reg, "cpu");
        if (tk)
            tk->regStats(reg, "tk");
        if (stride)
            stride->regStats(reg, "stride");
    }
}

void
Simulator::warmup()
{
    if (warmedUp_)
        return;
    VSV_ASSERT(!ran, "Simulator::warmup() after run()");
    materializeReplicas();
    functionalWarmup();
    warmedUp_ = true;
}

void
Simulator::snapshotTo(std::ostream &os,
                      std::string_view fingerprint) const
{
    VSV_ASSERT(warmedUp_ && !ran,
               "snapshotTo() needs warmed-up, not-yet-run state");
    SnapshotWriter writer(os, fingerprint);

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

    power->snapshot(writer);
    hierarchy->snapshot(writer);
    predictor->snapshot(writer);
    if (tk)
        tk->snapshot(writer);
    if (stride)
        stride->snapshot(writer);
    workload->snapshot(writer);
    writer.finish();
}

void
Simulator::restoreFrom(std::istream &is,
                       std::string_view expected_fingerprint)
{
    VSV_ASSERT(!warmedUp_ && !ran,
               "restoreFrom() needs a freshly constructed simulator");
    VSV_ASSERT(replicaConfigs.empty(),
               "lockstep replicas always warm up fresh; restoring a "
               "snapshot into a batched simulator is unsupported");
    try {
        SnapshotReader reader(is);
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

        power->restore(reader);
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
    const double energy0 = power->totalEnergyPj();
    std::vector<double> replicaEnergy0(replicaPower.size());
    for (std::size_t r = 0; r < replicaPower.size(); ++r)
        replicaEnergy0[r] = replicaPower[r].totalEnergyPj();
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
            *traceSink, registry, options.trace.intervalTicks, scalars,
            start);
        sampler->setEnergyProbe(
            [this] { return power->peekTotalEnergyPj(); });
    }

    const auto wallStart = std::chrono::steady_clock::now();

    AbortPoller poller(options.abortHook);
    while (cpu->committedInstructions() < target) {
        poller.poll("measurement");
        if (sampler && now >= sampler->nextSampleAt())
            sampler->sample(now);

        // Idle-tick fast-forward: with every controller in a steady
        // state, no memory event due, and the core provably unable to
        // make progress, the upcoming ticks are pure bookkeeping -
        // apply it in bulk and jump. Exact by construction (DESIGN.md
        // §5d); `--no-fast-forward` runs the loop below for every
        // tick instead.
        if (options.fastForward) {
            bool idle = lastIssued == 0 && vsvCtrl->inSteadyState();
            // Lockstep replicas gate fast-forward too: every replica
            // must be in a steady state, or the bulk replay could
            // skip a tick where a replica's FSM settles.
            for (std::size_t r = 0; r < replicaCtrl.size() && idle; ++r)
                idle = replicaCtrl[r].inSteadyState();
            const Tick nextEv = idle ? hierarchy->nextEventTick() : Tick{0};
            const Cycle ffBudget =
                idle && nextEv > now ? cpu->cyclesUntilProgress() : 0;
            if (ffBudget > 0) {
                Tick horizon = std::min(nextEv - now, limit - now);
                if (tk) {
                    // tk->tick() is a strict no-op before its next
                    // decay sweep; never skip across one.
                    const Tick sweep = tk->nextSweepAt();
                    horizon = std::min(
                        horizon, sweep > now ? sweep - now : Tick{0});
                }
                if (sampler) {
                    // Epoch boundaries land on exact ticks whether or
                    // not fast-forward is on (DESIGN.md §5e).
                    horizon =
                        std::min(horizon, sampler->nextSampleAt() - now);
                }
                Tick jump =
                    vsvCtrl->planIdleAdvance(now, horizon, ffBudget).ticks;
                // The jump is the minimum across leader *and* replicas
                // (replicas share the leader's stall bound: the
                // pipeline they pace is the shared one).
                for (std::size_t r = 0; r < replicaCtrl.size() && jump > 0;
                     ++r) {
                    jump = std::min(
                        jump,
                        replicaCtrl[r].planIdleAdvance(now, jump, ffBudget)
                            .ticks);
                }
                if (jump > 0) {
                    const VsvController::IdleAdvance adv =
                        vsvCtrl->advanceIdle(now, jump, ffBudget);
                    VSV_ASSERT(adv.ticks == jump,
                               "idle commit shorter than plan");
                    if (traceSink) {
                        traceSink->record(TraceCategory::FastForward,
                                          TraceEventKind::IdleSpan, now,
                                          adv.ticks, adv.edges);
                    }
                    cpu->skipIdleCycles(adv.edges);
                    power->accrueIdleTicks(adv.edges,
                                           adv.ticks - adv.edges);
                    for (std::size_t r = 0; r < replicaCtrl.size(); ++r) {
                        // Each replica replays its own bulk idle
                        // bookkeeping (edge split and idle-tick banking
                        // are per-config; fanout only mirrors the
                        // per-tick entry points).
                        const VsvController::IdleAdvance radv =
                            replicaCtrl[r].advanceIdle(now, jump,
                                                       ffBudget);
                        VSV_ASSERT(radv.ticks == jump,
                                   "replica idle commit shorter than "
                                   "plan");
                        replicaPower[r].accrueIdleTicks(
                            radv.edges, radv.ticks - radv.edges);
                    }
                    ffTicks += jump;
                    now += jump;
                    continue;
                }
            }
        }

        hierarchy->service(now);
        const bool edge = vsvCtrl->beginTick(now);
        // Lockstep replicas advance their clocks and voltages *before*
        // the shared pipeline cycle runs, so the cycle's access energy
        // fans out at each replica's tick-correct VDD. A replica whose
        // pipeline-edge schedule diverges from the leader's would need
        // the shared stream at a different rate - batch formation
        // should have prevented that, so it is a fatal() (throwable
        // inside a sweep worker, where the batch is re-run serially).
        for (VsvController &rc : replicaCtrl) {
            if (rc.beginTick(now) != edge) {
                fatal("lockstep replica edge schedule diverged from the "
                      "leader at tick " +
                      std::to_string(now));
            }
        }
        if (edge) {
            const std::uint32_t issued = cpu->cycle(now);
            vsvCtrl->observeIssueRate(issued);
            for (VsvController &rc : replicaCtrl)
                rc.observeIssueRate(issued);
            lastIssued = issued;
        }
        if (tk)
            tk->tick(now);
        power->tick(edge);
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

    // Convert any idle ticks still banked in the power models so the
    // registered Scalars (read directly by stats dumps) are final.
    power->flushIdle();
    for (const PowerModel &rp : replicaPower)
        rp.flushIdle();

    SimulationResult result;
    result.benchmark = options.profile.name;
    result.ticks = now - start;
    const auto ticks_d = static_cast<double>(result.ticks);

    result.instructions = cpu->committedInstructions();
    result.pipelineCycles = cpu->pipelineCycles();
    result.downTransitions = vsvCtrl->downTransitions();
    result.upTransitions = vsvCtrl->upTransitions();
    result.ipc = static_cast<double>(result.instructions) / ticks_d;
    result.mr = 1000.0 *
                static_cast<double>(hierarchy->demandL2MissCount() -
                                    misses0) /
                static_cast<double>(result.instructions);
    result.energyPj = power->totalEnergyPj() - energy0;
    result.avgPowerW = result.energyPj / ticks_d * 1e-3;
    result.lowModeFraction = lowModeTicks(*vsvCtrl) / ticks_d;

    result.wallSeconds =
        std::chrono::duration<double>(wallEnd - wallStart).count();
    result.kinstPerSec =
        result.wallSeconds > 0.0
            ? static_cast<double>(result.instructions) /
                  result.wallSeconds / 1e3
            : 0.0;
    result.fastForwardedTicks = ffTicks;
    result.ffTickFraction = static_cast<double>(ffTicks) /
                            static_cast<double>(result.ticks);

    // Replica results share every front-end/timing field with the
    // leader (that sharing is exactly what batch formation proved
    // legal); only the power/VSV accounting is per replica.
    replicaResults_.reserve(replicaCtrl.size());
    for (std::size_t r = 0; r < replicaCtrl.size(); ++r) {
        SimulationResult rr = result;
        rr.downTransitions = replicaCtrl[r].downTransitions();
        rr.upTransitions = replicaCtrl[r].upTransitions();
        rr.energyPj =
            replicaPower[r].totalEnergyPj() - replicaEnergy0[r];
        rr.avgPowerW = rr.energyPj / ticks_d * 1e-3;
        rr.lowModeFraction = lowModeTicks(replicaCtrl[r]) / ticks_d;
        replicaResults_.push_back(std::move(rr));
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
    return result;
}

} // namespace vsv
