/**
 * @file
 * Detail tests of the out-of-order core: window wraparound, resource
 * limits, unpipelined dividers, I-cache stalls and determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "cpu/core.hh"

namespace vsv
{
namespace
{

/** Minimal harness (no warmup; tests opt in explicitly). */
struct Rig
{
    explicit Rig(const WorkloadProfile &profile, CoreConfig cc = {})
        : power(),
          mem(HierarchyConfig{}, power),
          predictor(),
          workload(profile),
          core(cc, workload, mem, predictor, power)
    {
    }

    void
    warm(std::uint64_t n)
    {
        mem.setWarmupMode(true);
        Tick t = 0;
        for (Addr off = 0; off < workload.profile().hotFootprint;
             off += 32) {
            mem.warmupDataAccess(WorkloadRegions::hot + off, false, t++);
        }
        for (Addr off = 0; off < workload.profile().warmFootprint;
             off += 32) {
            mem.warmupDataAccess(WorkloadRegions::warm + off, false,
                                 t++);
        }
        for (Addr off = 0; off < workload.profile().codeFootprint;
             off += 32) {
            mem.warmupInstAccess(WorkloadRegions::code + off, t++);
        }
        for (std::uint64_t i = 0; i < n; ++i) {
            const MicroOp op = workload.next();
            mem.warmupInstAccess(op.pc, t);
            if (isMemOp(op.cls)) {
                mem.warmupDataAccess(op.addr, op.cls == OpClass::Store,
                                     t);
            } else if (op.cls == OpClass::Branch) {
                predictor.resolve(op, predictor.predict(op));
            }
            ++t;
        }
        mem.setWarmupMode(false);
    }

    Tick
    run(std::uint64_t insts, Tick limit = 20'000'000)
    {
        Tick now = 0;
        while (core.committedInstructions() < insts && now < limit) {
            mem.service(now);
            core.cycle(now);
            ++now;
        }
        EXPECT_GE(core.committedInstructions(), insts);
        return now;
    }

    PowerModel power;
    MemoryHierarchy mem;
    BranchPredictor predictor;
    WorkloadGenerator workload;
    Core core;
};

WorkloadProfile
computeOnly(double mean_dep = 8.0)
{
    WorkloadProfile p;
    p.name = "compute";
    p.seed = 11;
    p.loadFrac = p.storeFrac = p.branchFrac = 0.0;
    p.meanDepDist = mean_dep;
    p.loadConsumerProb = 0.0;
    return p;
}

/**
 * Window geometry: the RUU is a ring of `ruuSize` slots with a ready
 * bitset over it, so sizes below, at and just past a 64-bit word
 * boundary (and one that leaves the last word partial) must all wrap
 * cleanly and keep committing.
 */
class CoreWindowTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CoreWindowTest, WindowWrapsManyTimesWithoutCorruption)
{
    // 50K instructions wrap the sequence-number ring hundreds to
    // thousands of times.
    CoreConfig config;
    config.ruuSize = GetParam();
    Rig rig(computeOnly(), config);
    rig.warm(8000);
    rig.run(50000);
    EXPECT_GE(rig.core.committedInstructions(), 50000u);
}

TEST_P(CoreWindowTest, TinyWindowStillMakesProgress)
{
    // Tiny LSQ and fetch queue: loads and dispatch stall constantly.
    CoreConfig config;
    config.ruuSize = GetParam();
    config.lsqSize = 2;
    config.fetchQueueSize = 2;
    WorkloadProfile p = computeOnly(4.0);
    p.loadFrac = 0.2;
    Rig rig(p, config);
    rig.warm(5000);
    const Tick ticks = rig.run(5000);
    EXPECT_LT(ticks, 1'000'000u);
}

INSTANTIATE_TEST_SUITE_P(
    RuuSizes, CoreWindowTest, ::testing::Values(4u, 64u, 65u, 128u, 130u),
    [](const ::testing::TestParamInfo<std::uint32_t> &info) {
        return "ruu" + std::to_string(info.param);
    });

TEST(CoreDetailTest, CommitWidthBoundsThroughput)
{
    CoreConfig config;
    config.commitWidth = 2;
    Rig rig(computeOnly(16.0), config);
    rig.warm(8000);
    const Tick ticks = rig.run(20000);
    const double ipc = 20000.0 / static_cast<double>(ticks);
    EXPECT_LE(ipc, 2.05);
    EXPECT_GT(ipc, 1.5);  // and it should be commit-, not issue-bound
}

TEST(CoreDetailTest, UnpipelinedDividersThrottleDivChains)
{
    // All-integer-divide workload: 2 unpipelined 20-cycle units bound
    // throughput at 2/20 = 0.1 IPC even with no dependences.
    WorkloadProfile p = computeOnly(64.0);
    p.intDivFrac = 1.0;
    p.secondSrcProb = 0.0;
    Rig rig(p);
    rig.warm(2000);
    const Tick ticks = rig.run(2000);
    const double ipc = 2000.0 / static_cast<double>(ticks);
    EXPECT_LT(ipc, 0.115);
    EXPECT_GT(ipc, 0.085);
}

TEST(CoreDetailTest, IntAluPoolBoundsWidth)
{
    // With only 2 integer ALUs, even a fully parallel int stream
    // cannot exceed IPC 2.
    CoreConfig config;
    config.fuPools.count[static_cast<std::size_t>(FuPool::IntAlu)] = 2;
    WorkloadProfile p = computeOnly(32.0);
    p.intMulFrac = 0.0;   // multiplies would ride the mul/div pool
    p.intDivFrac = 0.0;
    Rig rig(p, config);
    rig.warm(5000);
    const Tick ticks = rig.run(10000);
    const double ipc = 10000.0 / static_cast<double>(ticks);
    EXPECT_LE(ipc, 2.02);
    EXPECT_GT(ipc, 1.6);
}

TEST(CoreDetailTest, ColdICacheStallsFetch)
{
    // A giant code footprint with no warmup: I-cache misses dominate.
    WorkloadProfile cold = computeOnly(16.0);
    cold.codeFootprint = 512 * 1024;
    Rig cold_rig(cold);
    const Tick cold_ticks = cold_rig.run(5000);

    WorkloadProfile warmp = cold;
    Rig warm_rig(warmp);
    warm_rig.warm(200);  // pre-touches the whole code region
    const Tick warm_ticks = warm_rig.run(5000);

    EXPECT_GT(static_cast<double>(cold_ticks),
              3.0 * static_cast<double>(warm_ticks));
}

TEST(CoreDetailTest, CoreIsDeterministic)
{
    auto run_once = [] {
        WorkloadProfile p = computeOnly(6.0);
        p.loadFrac = 0.25;
        p.branchFrac = 0.1;
        Rig rig(p);
        rig.warm(5000);
        return rig.run(15000);
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(CoreDetailTest, LsqBoundsOutstandingMemOps)
{
    // A load-only stream against a 4-entry LSQ cannot hold more than
    // 4 mem ops in flight; it still completes, just slowly.
    CoreConfig config;
    config.lsqSize = 4;
    WorkloadProfile p;
    p.name = "loady";
    p.seed = 12;
    p.loadFrac = 0.8;
    p.storeFrac = p.branchFrac = 0.0;
    p.coldFrac = 0.2;
    p.coldPattern = ColdPattern::Random;
    Rig rig(p, config);
    rig.warm(5000);
    const Tick small_lsq = rig.run(3000);

    Rig big(p);
    big.warm(5000);
    const Tick big_lsq = big.run(3000);
    EXPECT_GT(static_cast<double>(small_lsq),
              1.2 * static_cast<double>(big_lsq));
}

TEST(CoreDetailTest, IssueRateDistributionIsRecorded)
{
    Rig rig(computeOnly(10.0));
    rig.warm(5000);
    rig.run(10000);
    StatRegistry registry;
    rig.core.regStats(registry, "cpu");
    // The distribution exists and total issued matches committed
    // within the in-flight tail.
    const double issued = registry.scalarValue("cpu.issued");
    const double committed = registry.scalarValue("cpu.committed");
    EXPECT_GE(issued, committed);
    EXPECT_LE(issued, committed + 200.0);
}

/** The distributions half of a registry's JSON dump. */
std::string
distributionsJson(const StatRegistry &registry)
{
    std::ostringstream os;
    registry.dumpJson(os);
    const std::string json = os.str();
    return json.substr(json.find("\"distributions\""));
}

/**
 * The issue-rate histogram the core tallies per cycle and folds at
 * read must equal a distribution sampled with each cycle's issue
 * count, and with every fast-forwarded idle span, as it happens:
 * under mcf's long memory stalls (so spans are skipped) at the
 * default width and at 16, whose counts above 8 overflow the
 * buckets.
 */
class CoreIssueRateTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CoreIssueRateTest, FoldedHistogramEqualsPerCycleSampling)
{
    CoreConfig config;
    config.issueWidth = GetParam();
    config.fetchWidth = config.dispatchWidth = config.commitWidth =
        GetParam();
    config.fuPools = FuPoolSizes{{16, 4, 8, 8}};
    config.dcachePorts = 8;
    Rig rig(spec2kProfile("mcf"), config);
    rig.warm(20000);
    Distribution reference(0, 8, 1);
    Tick now = 0;
    std::uint32_t last_issued = 1;
    Cycle skipped = 0;
    std::uint32_t widest = 0;
    while (rig.core.committedInstructions() < 30000 && now < 20'000'000) {
        const Tick next_event = rig.mem.nextEventTick();
        const Cycle budget = last_issued == 0 && next_event > now
                                 ? rig.core.cyclesUntilProgress()
                                 : 0;
        if (budget > 0 && next_event != maxTick) {
            const Cycle span = std::min<Cycle>(budget, next_event - now);
            rig.core.skipIdleCycles(span);
            reference.sample(0, span);
            skipped += span;
            now += span;
            continue;
        }
        rig.mem.service(now);
        last_issued = rig.core.cycle(now);
        reference.sample(last_issued);
        widest = std::max(widest, last_issued);
        ++now;
    }
    ASSERT_GE(rig.core.committedInstructions(), 30000u);
    EXPECT_GT(skipped, 0u);
    if (GetParam() > 8) {
        EXPECT_GT(widest, 8u);
    }

    StatRegistry core_stats;
    rig.core.regStats(core_stats, "cpu");
    StatRegistry sampled;
    sampled.registerDistribution("cpu.issueRate", &reference,
                                 "instructions issued per cycle");
    EXPECT_EQ(distributionsJson(core_stats), distributionsJson(sampled));
}

INSTANTIATE_TEST_SUITE_P(Widths, CoreIssueRateTest,
                         ::testing::Values(8u, 16u));

} // namespace
} // namespace vsv
