/**
 * @file
 * Batch-formation unit tests for the lockstep executor: the
 * structural fingerprint must key exactly the options that can change
 * cycle-level behaviour (same thresholds/divider grid batches;
 * differing benchmark/prefetcher splits), eligibility must
 * reject runs the shared front-end cannot serve, and the planner must
 * group, chunk and count accordingly.
 */

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/lockstep.hh"

namespace vsv
{
namespace
{

SimulationOptions
fsmOptions(const std::string &bench = "mcf")
{
    SimulationOptions options = makeOptions(bench, false, 20000, 5000);
    options.vsv = fsmVsvConfig();
    return options;
}

TEST(StructuralFingerprintTest, IgnoresEveryPowerAccountingKnob)
{
    const SimulationOptions a = fsmOptions();
    SimulationOptions b = a;
    b.power.gating = GatingStyle::Simple;
    b.power.gatingEfficiency = 0.5;
    b.power.idleFraction = 0.25;
    b.power.rampEnergyPj = 1.0;
    b.power.leakageFraction = 0.2;
    b.power.converterHighModeFactor = 0.9;
    b.power.vddHigh = 1.9;
    b.power.vddLow = 1.0;

    EXPECT_EQ(structuralFingerprint(a), structuralFingerprint(b));
    // ... while the result fingerprint must still tell them apart.
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
}

TEST(StructuralFingerprintTest, IgnoresVoltagePairWithEqualRampTicks)
{
    // 1.8 -> 1.2 V at 0.05 V/tick and 1.8 -> 1.32 V at 0.04 V/tick
    // are both exactly 12 ramp ticks: same timing, different energy.
    const SimulationOptions a = fsmOptions();
    SimulationOptions b = a;
    b.vsv.vddLow = 1.32;
    b.vsv.slewVoltsPerTick = 0.04;
    b.power.vddLow = 1.32;

    EXPECT_EQ(structuralFingerprint(a), structuralFingerprint(b));
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
}

TEST(StructuralFingerprintTest, SeparatesEveryTimingKnob)
{
    const SimulationOptions base = fsmOptions();
    const std::string fp = structuralFingerprint(base);

    {
        SimulationOptions o = base;  // FSM thresholds are timing
        o.vsv.down.threshold = 5;
        EXPECT_NE(structuralFingerprint(o), fp);
    }
    {
        SimulationOptions o = base;  // so is the divided clock
        o.vsv.clockDivider = 4;
        EXPECT_NE(structuralFingerprint(o), fp);
    }
    {
        SimulationOptions o = base;  // a slew that changes rampTicks
        o.vsv.slewVoltsPerTick = 0.1;
        EXPECT_NE(structuralFingerprint(o), fp);
    }
    {
        SimulationOptions o = base;  // FSM monitoring windows
        o.vsv.down.period = 5;
        EXPECT_NE(structuralFingerprint(o), fp);
    }
    {
        SimulationOptions o = base;
        o.vsv.up.period = 20;
        EXPECT_NE(structuralFingerprint(o), fp);
    }
    {
        SimulationOptions o = base;  // the low-to-high policy
        o.vsv.upPolicy = UpPolicy::LastR;
        EXPECT_NE(structuralFingerprint(o), fp);
    }
    {
        SimulationOptions o = base;  // circuit timings pace transitions
        o.vsv.ctrlDistTicks = 3;
        EXPECT_NE(structuralFingerprint(o), fp);
    }
    {
        SimulationOptions o = base;
        o.vsv.clockTreeTicks = 3;
        EXPECT_NE(structuralFingerprint(o), fp);
    }
    {
        SimulationOptions o = base;  // early detection arms the FSM sooner
        o.hierarchy.l2MissDetectTicks = 4;
        EXPECT_NE(structuralFingerprint(o), fp);
    }
    {
        SimulationOptions o = base;  // baseline vs VSV
        o.vsv.enabled = false;
        EXPECT_NE(structuralFingerprint(o), fp);
    }
    {
        // A different benchmark generates a different stream.
        const SimulationOptions o = fsmOptions("ammp");
        EXPECT_NE(structuralFingerprint(o), fp);
    }
    {
        SimulationOptions o = base;  // prefetchers change cache hits
        o.timekeeping = true;
        EXPECT_NE(structuralFingerprint(o), fp);
    }
    {
        SimulationOptions o = base;  // window sizes
        o.measureInstructions += 1;
        EXPECT_NE(structuralFingerprint(o), fp);
    }
    {
        SimulationOptions o = base;  // functional units pace issue
        o.core.fuPools.count[3] = 1;
        EXPECT_NE(structuralFingerprint(o), fp);
        EXPECT_NE(configFingerprint(o), configFingerprint(base));
    }
    {
        SimulationOptions o = base;  // TK's signature shapes training
        o.tk.tagSigBits = 7;
        EXPECT_NE(structuralFingerprint(o), fp);
        EXPECT_NE(configFingerprint(o), configFingerprint(base));
    }
    {
        SimulationOptions o = base;  // past the sixth digit
        o.tk.deadMultiplier *= 1.0 + 1e-7;
        EXPECT_NE(structuralFingerprint(o), fp);
        EXPECT_NE(configFingerprint(o), configFingerprint(base));
    }
}

TEST(StructuralFingerprintTest, VsvOffIgnoresEveryVsvKnob)
{
    // The baseline processor never leaves VDDH and never divides its
    // clock, so no VSV knob, and not the miss-detect latency that only
    // feeds the controller, can change a VSV-off run's timing.
    const SimulationOptions base = makeOptions("mcf", false, 20000, 5000);
    ASSERT_FALSE(base.vsv.enabled);
    const std::string fp = structuralFingerprint(base);

    const std::vector<std::pair<const char *,
                                std::function<void(SimulationOptions &)>>>
        knobs = {
            {"vsv.down.threshold",
             [](SimulationOptions &o) { o.vsv.down.threshold = 0; }},
            {"vsv.down.period",
             [](SimulationOptions &o) { o.vsv.down.period = 5; }},
            {"vsv.up.threshold",
             [](SimulationOptions &o) { o.vsv.up.threshold = 5; }},
            {"vsv.up.period",
             [](SimulationOptions &o) { o.vsv.up.period = 20; }},
            {"vsv.upPolicy",
             [](SimulationOptions &o) { o.vsv.upPolicy = UpPolicy::LastR; }},
            {"vsv.ctrlDistTicks",
             [](SimulationOptions &o) { o.vsv.ctrlDistTicks = 3; }},
            {"vsv.clockTreeTicks",
             [](SimulationOptions &o) { o.vsv.clockTreeTicks = 3; }},
            {"vsv.clockDivider",
             [](SimulationOptions &o) { o.vsv.clockDivider = 4; }},
            {"vsv.slewVoltsPerTick",
             [](SimulationOptions &o) { o.vsv.slewVoltsPerTick = 0.025; }},
            {"vsv.vddLow", [](SimulationOptions &o) { o.vsv.vddLow = 1.5; }},
            {"vsv.vddHigh",
             [](SimulationOptions &o) { o.vsv.vddHigh = 2.0; }},
            {"hierarchy.l2MissDetectTicks",
             [](SimulationOptions &o) { o.hierarchy.l2MissDetectTicks = 4; }},
        };
    for (const auto &[name, change] : knobs) {
        SimulationOptions o = base;
        change(o);
        EXPECT_EQ(structuralFingerprint(o), fp) << name;
        // The result store still tells every one of them apart.
        EXPECT_NE(configFingerprint(o), configFingerprint(base)) << name;
    }

    // Everything else still splits a VSV-off run's key.
    SimulationOptions o = base;
    o.hierarchy.dram.latency += 1;
    EXPECT_NE(structuralFingerprint(o), fp);
}

TEST(StructuralFingerprintTest, ModifiedProfileNeverMatchesItsStockTwin)
{
    // baseline_techniques' swPF-off variant keeps the stock name and
    // seed but generates a different stream: neither lockstep nor the
    // result store may treat it as its swPF-on twin.
    const SimulationOptions stock = fsmOptions("art");
    SimulationOptions no_sw_prefetch = stock;
    no_sw_prefetch.profile.swPrefetchCoverage = 0.0;
    EXPECT_NE(configFingerprint(no_sw_prefetch), configFingerprint(stock));
    EXPECT_NE(structuralFingerprint(no_sw_prefetch),
              structuralFingerprint(stock));

    // The seed is not a modification: reseeding keeps a stock profile
    // stock, and a reseeded twin pair still differs.
    SimulationOptions reseeded = stock;
    applyRunSeed(reseeded, 7);
    SimulationOptions reseeded_twin = no_sw_prefetch;
    applyRunSeed(reseeded_twin, 7);
    EXPECT_NE(configFingerprint(reseeded), configFingerprint(stock));
    EXPECT_NE(configFingerprint(reseeded_twin),
              configFingerprint(reseeded));
}

TEST(StructuralFingerprintTest, StockProfilesKeepTheirFingerprints)
{
    // Stock profiles fingerprint as name+seed only, exactly as before
    // profile knobs were hashed: stored results and the benchmark's
    // reference fingerprints stay valid.
    SimulationOptions options = fsmOptions();
    EXPECT_EQ(configFingerprint(options), "eaecfcae38e08d30");
    EXPECT_EQ(structuralFingerprint(options), "8aa18908889a295e");
    applyRunSeed(options, 1);
    EXPECT_EQ(configFingerprint(options), "fe5de603e18d9c6e");
    EXPECT_EQ(structuralFingerprint(options), "142b81fb0a69ae0a");
}

TEST(LockstepEligibilityTest, ReasonsAreReportedAndStable)
{
    EXPECT_EQ(lockstepIneligibleReason({"ok", fsmOptions()}), nullptr);

    SweepJob traced{"tr", fsmOptions()};
    traced.options.trace.path = "/tmp/out.json";
    EXPECT_STREQ(lockstepIneligibleReason(traced), "event-tracing");

    SweepJob timed{"to", fsmOptions()};
    timed.softTimeoutSeconds = 1.0;
    EXPECT_STREQ(lockstepIneligibleReason(timed), "soft-timeout");

    SweepJob hooked{"ah", fsmOptions()};
    hooked.options.abortHook = [] { return false; };
    EXPECT_STREQ(lockstepIneligibleReason(hooked), "abort-hook");
}

TEST(LockstepPlanTest, GroupsByStructureAndChunksToMaxReplicas)
{
    // Five power variants of one structure + one structurally
    // different config + one ineligible config.
    std::vector<SweepJob> jobs;
    for (int i = 0; i < 5; ++i) {
        SweepJob job{"pow-" + std::to_string(i), fsmOptions()};
        job.options.power.gatingEfficiency = 0.5 + 0.05 * i;
        jobs.push_back(std::move(job));
    }
    SweepJob other{"divider-4", fsmOptions()};
    other.options.vsv.clockDivider = 4;
    jobs.push_back(std::move(other));
    SweepJob traced{"traced", fsmOptions()};
    traced.options.trace.path = "/tmp/out.json";
    jobs.push_back(std::move(traced));

    LockstepStats stats;
    const LockstepPlan plan = planLockstep(jobs, 2, stats);

    // 5 batchables at width 2 -> batches {0,1}, {2,3}, serial {4};
    // the divider-4 group is a singleton; the traced job ineligible.
    ASSERT_EQ(plan.batches.size(), 2u);
    EXPECT_EQ(plan.batches[0].members,
              (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(plan.batches[1].members,
              (std::vector<std::size_t>{2, 3}));
    EXPECT_EQ(plan.serial, (std::vector<std::size_t>{6, 4, 5}));

    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.batchedRuns, 4u);
    EXPECT_EQ(stats.serialRuns, 3u);
    EXPECT_EQ(stats.largestBatch, 2u);
    ASSERT_EQ(stats.ineligible.size(), 1u);
    EXPECT_EQ(stats.ineligible.at("event-tracing"), 1u);
}

TEST(LockstepPlanTest, WidthUnderTwoPlansEverythingSerial)
{
    std::vector<SweepJob> jobs;
    for (int i = 0; i < 3; ++i)
        jobs.push_back({std::string("j").append(std::to_string(i)),
                        fsmOptions()});

    for (const unsigned width : {0u, 1u}) {
        LockstepStats stats;
        const LockstepPlan plan = planLockstep(jobs, width, stats);
        EXPECT_TRUE(plan.batches.empty()) << width;
        EXPECT_EQ(plan.serial.size(), jobs.size()) << width;
        EXPECT_EQ(stats.serialRuns, jobs.size()) << width;
        EXPECT_EQ(stats.batches, 0u) << width;
    }
}

TEST(LockstepRunnerTest, IdenticalConfigsBatchAndMatchSerial)
{
    // The smallest end-to-end check: two ids with the *same* options
    // must batch, succeed, and produce the exact serial outcome.
    std::vector<SweepJob> jobs{{"a", fsmOptions()},
                               {"b", fsmOptions()}};

    SweepRunner serial(1);
    const std::vector<SweepOutcome> want = serial.run(jobs);

    SweepRunner batched(1);
    batched.enableLockstep(8);
    const std::vector<SweepOutcome> got = batched.run(jobs);

    EXPECT_EQ(batched.lockstepStats().batches, 1u);
    EXPECT_EQ(batched.lockstepStats().batchedRuns, 2u);
    EXPECT_EQ(batched.lockstepStats().fallbacks, 0u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].status, SweepStatus::Ok);
        EXPECT_EQ(got[i].scalars, want[i].scalars) << jobs[i].id;
        EXPECT_EQ(got[i].statsJson, want[i].statsJson) << jobs[i].id;
    }
}

} // namespace
} // namespace vsv
