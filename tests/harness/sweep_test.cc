/**
 * @file
 * Tests of the parallel sweep runner: schedule-independent results,
 * deterministic seeding, and the sweep JSON document.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "harness/experiment.hh"

namespace vsv
{
namespace
{

std::vector<SweepJob>
smallGrid(std::uint64_t sweep_seed = 0)
{
    std::vector<SweepJob> jobs;
    for (const char *name : {"mcf", "ammp"}) {
        SimulationOptions base = makeOptions(name, false, 20000, 5000);
        applyRunSeed(base, sweep_seed);
        jobs.push_back({std::string(name) + "/base", base});

        SimulationOptions vsv = base;
        vsv.vsv = fsmVsvConfig();
        jobs.push_back({std::string(name) + "/fsm", vsv});
    }
    return jobs;
}

TEST(SweepRunnerTest, ParallelMatchesSerialBitIdentically)
{
    const std::vector<SweepJob> jobs = smallGrid();
    const std::vector<SweepOutcome> serial = SweepRunner(1).run(jobs);
    const std::vector<SweepOutcome> threaded = SweepRunner(4).run(jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(threaded.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(serial[i].id, jobs[i].id);
        EXPECT_EQ(threaded[i].id, jobs[i].id);
        // Bit-identical: every scalar and the serialized documents.
        EXPECT_EQ(serial[i].scalars, threaded[i].scalars) << jobs[i].id;
        EXPECT_EQ(serial[i].statsJson, threaded[i].statsJson)
            << jobs[i].id;
        EXPECT_EQ(serial[i].result.ticks, threaded[i].result.ticks);
        EXPECT_EQ(serial[i].result.energyPj, threaded[i].result.energyPj);
    }
}

TEST(SweepTaskOrderTest, BatchesThenLongestWarmupOwnersThenTheRest)
{
    // Warmup fingerprints: {0, 1} mcf, {2, 4} art+TK, 3 ammp, 5
    // swim+TK. 6 and 7 form a lockstep batch; their warmup is the
    // longest, yet the batch keeps its place at the front.
    std::vector<SweepJob> jobs;
    const auto add = [&jobs](const char *name, bool tk,
                             std::uint64_t warmup, bool fsm) {
        SimulationOptions o = makeOptions(name, tk, 1000, warmup);
        if (fsm)
            o.vsv = fsmVsvConfig();
        const std::string id =
            std::string(name) + "/" + std::to_string(jobs.size());
        jobs.push_back({id, o});
    };
    add("mcf", false, 3000, false);
    add("mcf", false, 3000, true);
    add("art", true, 9000, false);
    add("ammp", false, 3000, false);
    add("art", true, 9000, true);
    add("swim", true, 9000, false);
    add("gzip", false, 20000, false);
    add("gzip", false, 20000, true);

    const std::vector<std::vector<std::size_t>> tasks =
        orderSweepTasks(jobs, {{7, 6}}, {5, 3, 0, 4, 1, 2});
    const std::vector<std::vector<std::size_t>> expected = {
        {7, 6},          // the batch, first and intact
        {2}, {5},        // 9000-instruction owners, submission order
        {0}, {3},        // 3000-instruction owners
        {1}, {4},        // restores, submission order
    };
    EXPECT_EQ(tasks, expected);
}

TEST(SweepTaskOrderTest, EveryTaskAppearsExactlyOnce)
{
    std::vector<SweepJob> jobs;
    std::vector<std::size_t> serial;
    for (std::size_t i = 0; i < 24; ++i) {
        const char *name = i % 3 == 0 ? "mcf" : i % 3 == 1 ? "art" : "swim";
        SimulationOptions o =
            makeOptions(name, i % 2 == 0, 1000, 1000 * (1 + i % 5));
        jobs.push_back({std::string(name) + "/" + std::to_string(i), o});
        if (i >= 4)
            serial.push_back(i);
    }
    std::reverse(serial.begin(), serial.end());
    const std::vector<std::vector<std::size_t>> batches = {{2, 0},
                                                           {3, 1}};
    const std::vector<std::vector<std::size_t>> tasks =
        orderSweepTasks(jobs, batches, serial);

    ASSERT_EQ(tasks.size(), batches.size() + serial.size());
    EXPECT_EQ(tasks[0], batches[0]);
    EXPECT_EQ(tasks[1], batches[1]);
    std::vector<std::size_t> seen;
    for (const std::vector<std::size_t> &task : tasks)
        seen.insert(seen.end(), task.begin(), task.end());
    std::sort(seen.begin(), seen.end());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(seen[i], i);
}

TEST(SweepRunnerTest, ZeroJobsPicksAtLeastOneThread)
{
    EXPECT_GE(SweepRunner(0).threads(), 1u);
    EXPECT_EQ(SweepRunner(3).threads(), 3u);
}

TEST(SweepRunnerTest, EmptyGridYieldsEmptyOutcomes)
{
    EXPECT_TRUE(SweepRunner(4).run({}).empty());
}

TEST(MixSeedTest, ZeroSweepSeedIsIdentity)
{
    // The default keeps every profile's published seed, so figure
    // numbers are unchanged unless --seed is given explicitly.
    EXPECT_EQ(mixSeed(0, 42u), 42u);
    EXPECT_EQ(mixSeed(0, 0u), 0u);
}

TEST(MixSeedTest, MixingIsDeterministicAndSpreads)
{
    EXPECT_EQ(mixSeed(1, 42u), mixSeed(1, 42u));
    EXPECT_NE(mixSeed(1, 42u), 42u);
    EXPECT_NE(mixSeed(1, 42u), mixSeed(2, 42u));
    EXPECT_NE(mixSeed(1, 42u), mixSeed(1, 43u));
}

TEST(MixSeedTest, ApplyRunSeedRewritesTheProfileSeed)
{
    SimulationOptions options = makeOptions("mcf", false, 1000, 0);
    const std::uint64_t original = options.profile.seed;

    applyRunSeed(options, 0);
    EXPECT_EQ(options.profile.seed, original);

    applyRunSeed(options, 7);
    EXPECT_EQ(options.profile.seed, mixSeed(7, original));
}

TEST(SweepJsonTest, DocumentCarriesManifestAndEveryScalar)
{
    SimulationOptions options = makeOptions("mcf", false, 10000, 2000);
    const SweepOutcome outcome =
        SweepRunner::runOne({"mcf/base", options});
    EXPECT_FALSE(outcome.scalars.empty());

    SweepManifest manifest;
    manifest.tool = "sweep_test";
    manifest.seed = 9;
    manifest.threads = 2;
    manifest.wallSeconds = 0.25;
    manifest.config = {{"instructions", "10000"}};

    std::ostringstream os;
    writeSweepJson(os, manifest, {outcome});
    const std::string doc = os.str();

    EXPECT_NE(doc.find("\"manifest\""), std::string::npos);
    EXPECT_NE(doc.find("\"tool\":\"sweep_test\""), std::string::npos);
    EXPECT_NE(doc.find("\"gitDescribe\""), std::string::npos);
    EXPECT_NE(doc.find("\"seed\":9"), std::string::npos);
    EXPECT_NE(doc.find("\"threads\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"instructions\":\"10000\""), std::string::npos);
    EXPECT_NE(doc.find("\"id\":\"mcf/base\""), std::string::npos);

    // Every registered scalar appears by name in the document.
    for (const auto &[name, value] : outcome.scalars)
        EXPECT_NE(doc.find('"' + name + '"'), std::string::npos) << name;

    // The per-run result block is present too.
    EXPECT_NE(doc.find("\"result\":{\"benchmark\":\"mcf\""),
              std::string::npos);
}

TEST(SweepJsonTest, GitDescribeIsStamped)
{
    EXPECT_FALSE(buildGitDescribe().empty());
}

} // namespace
} // namespace vsv
