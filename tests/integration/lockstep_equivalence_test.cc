/**
 * @file
 * Proof that lockstep batch execution is an optimization, not a model
 * change: every statistic the simulator exports must be bit-identical
 * between a lockstep-enabled sweep and a plain serial sweep — over the
 * full Figure 4 grid (whose base/no-fsm/fsm axis is structurally
 * divergent, so the planner must route every run serially) and over a
 * power-characterization grid that genuinely batches (one front-end
 * feeding many PowerModel/VsvController replicas, including an
 * equal-rampTicks rail-voltage variant), over baseline_techniques'
 * grid, whose modified workload profiles must not batch with their
 * stock twins, and over ablation_vsv's grid, whose VSV-off baselines
 * batch across every VSV knob.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/lockstep.hh"
#include "harness/sweep.hh"
#include "harness/warmup_cache.hh"
#include "workload/workload.hh"

namespace vsv
{
namespace
{

/** The Figure 4 job list (3 configs per benchmark) at test scale. */
std::vector<SweepJob>
figure4Grid()
{
    std::vector<SweepJob> jobs;
    for (const auto &name : spec2kBenchmarks()) {
        const SimulationOptions base =
            makeOptions(name, false, 20000, 5000);
        jobs.push_back({name + "/base", base});

        SimulationOptions no_fsm = base;
        no_fsm.vsv = noFsmVsvConfig();
        jobs.push_back({name + "/no-fsm", no_fsm});

        SimulationOptions with_fsm = base;
        with_fsm.vsv = fsmVsvConfig();
        jobs.push_back({name + "/fsm", with_fsm});
    }
    return jobs;
}

/**
 * A power-characterization grid: one structure (mcf + FSM) swept over
 * accounting-only knobs, so every job shares a structural fingerprint
 * and the planner forms one real batch. The vddl-1.32 entry pins the
 * subtlest eligibility rule: different rail voltages with the *same*
 * derived ramp duration (0.48 V at 0.04 V/tick = 0.6 V at 0.05 V/tick
 * = 12 ticks) are timing-identical and may share the front-end.
 */
std::vector<SweepJob>
powerCharacterizationGrid(const std::string &bench, bool timekeeping)
{
    SimulationOptions base = makeOptions(bench, timekeeping, 20000,
                                         timekeeping ? 0 : 5000);
    base.vsv = fsmVsvConfig();

    std::vector<SweepJob> jobs;
    jobs.push_back({bench + "/default", base});

    for (const auto &[style, name] :
         {std::pair{GatingStyle::None, "none"},
          std::pair{GatingStyle::Simple, "simple"},
          std::pair{GatingStyle::Ideal, "ideal"}}) {
        SimulationOptions gating = base;
        gating.power.gating = style;
        jobs.push_back({bench + "/gating-" + name, gating});
    }

    SimulationOptions converters = base;
    converters.power.converterHighModeFactor = 0.8;
    jobs.push_back({bench + "/conv-0.8", converters});

    SimulationOptions efficiency = base;
    efficiency.power.gatingEfficiency = 0.80;
    jobs.push_back({bench + "/ge-0.80", efficiency});

    SimulationOptions idle = base;
    idle.power.idleFraction = 0.15;
    jobs.push_back({bench + "/idle-0.15", idle});

    SimulationOptions ramp = base;
    ramp.power.rampEnergyPj = 33000.0;
    jobs.push_back({bench + "/ramp-33k", ramp});

    SimulationOptions leaky = base;
    leaky.power.leakageFraction = 0.05;
    jobs.push_back({bench + "/leak-0.05", leaky});

    SimulationOptions rail = base;
    rail.vsv.vddLow = 1.32;
    rail.vsv.slewVoltsPerTick = 0.04;
    rail.power.vddLow = 1.32;
    jobs.push_back({bench + "/vddl-1.32", rail});

    return jobs;
}

/** Baseline (VSV off) accounting variants must batch too: replicas
 *  whose controller never leaves VDDH still step in lockstep. */
std::vector<SweepJob>
baselineGrid()
{
    const SimulationOptions base = makeOptions("ammp", false, 20000,
                                               5000);
    std::vector<SweepJob> jobs;
    jobs.push_back({"ammp/base-default", base});
    SimulationOptions idle = base;
    idle.power.idleFraction = 0.2;
    jobs.push_back({"ammp/base-idle-0.2", idle});
    SimulationOptions leaky = base;
    leaky.power.leakageFraction = 0.1;
    jobs.push_back({"ammp/base-leak-0.1", leaky});
    return jobs;
}

/**
 * baseline_techniques' grid for one benchmark: {DCG, simple gating} x
 * {software prefetching on, off} x {baseline, VSV-FSM}. Gating is
 * accounting-only, so gating twins share a front-end; the swPF-off
 * profile generates a different stream under the same name and seed,
 * so it must never batch with its swPF-on twin.
 */
std::vector<SweepJob>
baselineTechniquesGrid(const std::string &bench)
{
    std::vector<SweepJob> jobs;
    for (const bool dcg : {true, false}) {
        for (const bool sw_prefetch : {true, false}) {
            SimulationOptions base = makeOptions(bench, false, 20000, 5000);
            base.power.gating = dcg ? GatingStyle::Dcg : GatingStyle::Simple;
            if (!sw_prefetch)
                base.profile.swPrefetchCoverage = 0.0;
            const std::string stem = bench + (dcg ? "/dcg" : "/simple") +
                                     (sw_prefetch ? "-swpf" : "");
            jobs.push_back({stem + "/base", base});

            SimulationOptions vsv = base;
            vsv.vsv = fsmVsvConfig();
            jobs.push_back({stem + "/vsv", vsv});
        }
    }
    return jobs;
}

/**
 * bench/ablation_vsv's grid for `benches` at test scale: ten variants,
 * each as a VSV-off baseline and an FSM run. No VSV knob and not the
 * miss-detect latency acts while VSV is off, so all ten baselines of a
 * benchmark share one front-end.
 */
std::vector<SweepJob>
ablationVsvGrid(const std::vector<std::string> &benches)
{
    const std::vector<std::function<void(SimulationOptions &)>> variants =
        {
            [](SimulationOptions &) {},
            [](SimulationOptions &o) { o.vsv.slewVoltsPerTick = 0.10; },
            [](SimulationOptions &o) { o.vsv.slewVoltsPerTick = 0.025; },
            [](SimulationOptions &o) { o.power.rampEnergyPj = 0.0; },
            [](SimulationOptions &o) { o.power.rampEnergyPj = 660000.0; },
            [](SimulationOptions &o) {
                o.vsv.vddLow = 1.5;
                o.power.vddLow = 1.5;
            },
            [](SimulationOptions &o) {
                o.vsv.down.period = 5;
                o.vsv.up.period = 5;
            },
            [](SimulationOptions &o) {
                o.vsv.down.period = 20;
                o.vsv.up.period = 20;
            },
            [](SimulationOptions &o) {
                o.hierarchy.l2MissDetectTicks = 4;
            },
            [](SimulationOptions &o) {
                o.power.gating = GatingStyle::Simple;
            },
        };
    std::vector<SweepJob> jobs;
    for (std::size_t v = 0; v < variants.size(); ++v) {
        for (const std::string &bench : benches) {
            SimulationOptions base = makeOptions(bench, false, 20000, 5000);
            variants[v](base);
            base.vsv.enabled = false;
            const std::string stem = bench + "/v" + std::to_string(v);
            jobs.push_back({stem + "/base", base});

            SimulationOptions vsv = base;
            const VsvConfig fsm = fsmVsvConfig();
            vsv.vsv.enabled = true;
            vsv.vsv.down = fsm.down;
            vsv.vsv.up = fsm.up;
            vsv.vsv.upPolicy = fsm.upPolicy;
            variants[v](vsv);
            vsv.vsv.enabled = true;
            jobs.push_back({stem + "/vsv", vsv});
        }
    }
    return jobs;
}

void
expectBitIdentical(const std::vector<SweepOutcome> &got,
                   const std::vector<SweepOutcome> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const SweepOutcome &a = got[i];
        const SweepOutcome &b = want[i];
        ASSERT_EQ(a.id, b.id);
        EXPECT_EQ(a.status, SweepStatus::Ok) << a.id << ": " << a.error;

        // Every registered scalar, bit for bit.
        EXPECT_EQ(a.scalars, b.scalars) << a.id;
        // The full stats dump, distributions included.
        EXPECT_EQ(a.statsJson, b.statsJson) << a.id;

        // Result fields, minus the host-dependent throughput block.
        EXPECT_EQ(a.result.instructions, b.result.instructions) << a.id;
        EXPECT_EQ(a.result.ticks, b.result.ticks) << a.id;
        EXPECT_EQ(a.result.pipelineCycles, b.result.pipelineCycles)
            << a.id;
        EXPECT_EQ(a.result.downTransitions, b.result.downTransitions)
            << a.id;
        EXPECT_EQ(a.result.upTransitions, b.result.upTransitions)
            << a.id;
        EXPECT_DOUBLE_EQ(a.result.ipc, b.result.ipc) << a.id;
        EXPECT_DOUBLE_EQ(a.result.mr, b.result.mr) << a.id;
        EXPECT_DOUBLE_EQ(a.result.energyPj, b.result.energyPj) << a.id;
        EXPECT_DOUBLE_EQ(a.result.avgPowerW, b.result.avgPowerW)
            << a.id;
        EXPECT_DOUBLE_EQ(a.result.lowModeFraction,
                         b.result.lowModeFraction)
            << a.id;
    }
}

TEST(LockstepEquivalenceTest, Figure4GridIsBitIdentical)
{
    // The Figure 4 axis is structurally divergent (VSV does shift
    // cache-hit counts), so every run must be planned serial - and the
    // outcomes must still match a lockstep-free sweep exactly.
    SweepRunner serial(4);
    const std::vector<SweepOutcome> want = serial.run(figure4Grid());

    SweepRunner lockstep(4);
    lockstep.enableLockstep(16);
    const std::vector<SweepOutcome> got = lockstep.run(figure4Grid());

    const LockstepStats &stats = lockstep.lockstepStats();
    EXPECT_TRUE(stats.enabled);
    EXPECT_EQ(stats.batches, 0u);
    EXPECT_EQ(stats.batchedRuns, 0u);
    EXPECT_EQ(stats.serialRuns, got.size());
    EXPECT_TRUE(stats.ineligible.empty());

    expectBitIdentical(got, want);
}

TEST(LockstepEquivalenceTest, PowerGridBatchesAndIsBitIdentical)
{
    // Every rail of the one batch must match its serial run, with the
    // idle fast-forward banking whole spans on the ledger and with
    // every tick closed one at a time.
    for (const bool fast_forward : {true, false}) {
        SCOPED_TRACE(fast_forward ? "fast-forward on" : "fast-forward off");
        std::vector<SweepJob> jobs = powerCharacterizationGrid("mcf", false);
        for (SweepJob &job : jobs)
            job.options.fastForward = fast_forward;

        SweepRunner serial(1);
        const std::vector<SweepOutcome> want = serial.run(jobs);

        SweepRunner lockstep(1);
        lockstep.enableLockstep(16);
        const std::vector<SweepOutcome> got = lockstep.run(jobs);

        const LockstepStats &stats = lockstep.lockstepStats();
        EXPECT_EQ(stats.batches, 1u);
        EXPECT_EQ(stats.batchedRuns, jobs.size());
        EXPECT_EQ(stats.largestBatch, jobs.size());
        EXPECT_EQ(stats.serialRuns, 0u);
        EXPECT_EQ(stats.fallbacks, 0u);

        expectBitIdentical(got, want);
    }
}

TEST(LockstepEquivalenceTest, TimekeepingGridBatchesAndIsBitIdentical)
{
    // TK prefetcher runs recordAccess during warmup and bounds the
    // fast-forward horizon; both interactions must fan out exactly.
    // The serial side gets the snapshot cache (the prior fastest
    // path) so the trained multi-million-instruction TK warmup runs
    // once, not once per config.
    const std::vector<SweepJob> jobs =
        powerCharacterizationGrid("art", true);

    SweepRunner serial(1);
    WarmupSnapshotCache cache;
    serial.enableWarmupSnapshots(cache);
    const std::vector<SweepOutcome> want = serial.run(jobs);

    SweepRunner lockstep(1);
    lockstep.enableLockstep(16);
    const std::vector<SweepOutcome> got = lockstep.run(jobs);

    EXPECT_EQ(lockstep.lockstepStats().batchedRuns, jobs.size());
    EXPECT_EQ(lockstep.lockstepStats().fallbacks, 0u);
    expectBitIdentical(got, want);
}

TEST(LockstepEquivalenceTest, BaselineGridBatchesAndIsBitIdentical)
{
    const std::vector<SweepJob> jobs = baselineGrid();

    SweepRunner serial(1);
    const std::vector<SweepOutcome> want = serial.run(jobs);

    SweepRunner lockstep(1);
    lockstep.enableLockstep(16);
    const std::vector<SweepOutcome> got = lockstep.run(jobs);

    EXPECT_EQ(lockstep.lockstepStats().batchedRuns, jobs.size());
    expectBitIdentical(got, want);
}

TEST(LockstepEquivalenceTest, BaselineTechniquesGridIsBitIdentical)
{
    const std::vector<SweepJob> jobs = baselineTechniquesGrid("art");

    SweepRunner serial(2);
    const std::vector<SweepOutcome> want = serial.run(jobs);

    SweepRunner lockstep(2);
    lockstep.enableLockstep(16);
    const std::vector<SweepOutcome> got = lockstep.run(jobs);

    // One batch of gating twins per {swPF on, off} x {base, VSV}.
    EXPECT_EQ(lockstep.lockstepStats().batches, 4u);
    EXPECT_EQ(lockstep.lockstepStats().largestBatch, 2u);
    EXPECT_EQ(lockstep.lockstepStats().batchedRuns, jobs.size());
    expectBitIdentical(got, want);
}

TEST(LockstepEquivalenceTest, AblationVsvGridBatchesAndIsBitIdentical)
{
    const std::vector<std::string> benches = {"mcf", "applu"};
    const std::vector<SweepJob> jobs = ablationVsvGrid(benches);

    // The plan, by run id: all ten baselines of a benchmark behind one
    // front-end; the FSM runs batch where only accounting differs
    // (v3, v4, v9 against v0) or the ramp length agrees (v1's fast
    // slew and v5's shallow VDDL both ramp 6 ticks).
    LockstepStats planned;
    const LockstepPlan plan = planLockstep(jobs, 16, planned);
    std::vector<std::vector<std::string>> batches;
    for (const LockstepBatch &b : plan.batches) {
        std::vector<std::string> ids;
        for (const std::size_t m : b.members)
            ids.push_back(jobs[m].id);
        batches.push_back(std::move(ids));
    }
    std::vector<std::string> serialIds;
    for (const std::size_t i : plan.serial)
        serialIds.push_back(jobs[i].id);

    const auto runs = [](const std::string &bench,
                         std::initializer_list<int> variants,
                         const char *kind) {
        std::vector<std::string> ids;
        for (const int v : variants)
            ids.push_back(bench + "/v" + std::to_string(v) + "/" + kind);
        return ids;
    };
    for (const std::string &bench : benches) {
        SCOPED_TRACE(bench);
        const std::vector<std::string> want[] = {
            runs(bench, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, "base"),
            runs(bench, {0, 3, 4, 9}, "vsv"),
            runs(bench, {1, 5}, "vsv"),
        };
        for (const std::vector<std::string> &batch : want) {
            EXPECT_EQ(std::count(batches.begin(), batches.end(), batch), 1)
                << batch.front();
        }
        for (const std::string &id : runs(bench, {2, 6, 7, 8}, "vsv")) {
            EXPECT_EQ(std::count(serialIds.begin(), serialIds.end(), id), 1)
                << id;
        }
    }
    EXPECT_EQ(batches.size(), 3 * benches.size());
    EXPECT_EQ(serialIds.size(), 4 * benches.size());

    SweepRunner serial(2);
    const std::vector<SweepOutcome> want = serial.run(jobs);

    SweepRunner lockstep(2);
    lockstep.enableLockstep(16);
    const std::vector<SweepOutcome> got = lockstep.run(jobs);

    const LockstepStats &stats = lockstep.lockstepStats();
    EXPECT_EQ(stats.batches, 3 * benches.size());
    EXPECT_EQ(stats.batchedRuns, 16 * benches.size());
    EXPECT_EQ(stats.serialRuns, 4 * benches.size());
    EXPECT_EQ(stats.largestBatch, 10u);
    EXPECT_EQ(stats.fallbacks, 0u);

    expectBitIdentical(got, want);
}

TEST(LockstepEquivalenceTest, ReplicaCapChunksWideGrids)
{
    // 10 batchable jobs at a batch width of 3 -> batches of 3+3+3 and
    // one serial remainder; results must still match serial execution.
    const std::vector<SweepJob> jobs =
        powerCharacterizationGrid("mcf", false);
    ASSERT_EQ(jobs.size(), 10u);

    SweepRunner serial(1);
    const std::vector<SweepOutcome> want = serial.run(jobs);

    SweepRunner lockstep(2);
    lockstep.enableLockstep(3);
    const std::vector<SweepOutcome> got = lockstep.run(jobs);

    const LockstepStats &stats = lockstep.lockstepStats();
    EXPECT_EQ(stats.batches, 3u);
    EXPECT_EQ(stats.batchedRuns, 9u);
    EXPECT_EQ(stats.largestBatch, 3u);
    EXPECT_EQ(stats.serialRuns, 1u);

    expectBitIdentical(got, want);
}

} // namespace
} // namespace vsv
