/**
 * @file
 * Tests of the sweep campaign hardening: per-run fault isolation,
 * soft timeouts, the retry policy, configuration fingerprints,
 * re-sweeping through the result store, the per-run trace path
 * derivation, and `--benchmarks` validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/minijson.hh"
#include "harness/experiment.hh"

namespace vsv
{
namespace
{

/** A fast, valid job for one benchmark/config cell. */
SweepJob
goodJob(const std::string &id, const char *bench, bool with_vsv)
{
    SimulationOptions options = makeOptions(bench, false, 20000, 5000);
    if (with_vsv)
        options.vsv = fsmVsvConfig();
    return {id, options};
}

/**
 * A job whose simulation cannot even construct: the trace file does
 * not exist, so the TraceReader fatal()s. Under fault isolation that
 * must surface as an Error outcome, not process death.
 */
SweepJob
faultingJob(const std::string &id)
{
    SweepJob job = goodJob(id, "mcf", false);
    job.options.tracePath = "/nonexistent/vsv-sweep-fault-test.trc";
    return job;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

TEST(SweepFaultTest, OneFaultingRunDoesNotPoisonTheOthers)
{
    const std::vector<SweepJob> jobs = {
        goodJob("mcf/base", "mcf", false),
        faultingJob("mcf/broken"),
        goodJob("ammp/base", "ammp", false),
    };
    const std::vector<SweepOutcome> outcomes = SweepRunner(2).run(jobs);
    ASSERT_EQ(outcomes.size(), 3u);

    EXPECT_EQ(outcomes[0].status, SweepStatus::Ok);
    EXPECT_TRUE(outcomes[0].error.empty());
    EXPECT_GT(outcomes[0].result.instructions, 0u);
    EXPECT_FALSE(outcomes[0].scalars.empty());

    EXPECT_EQ(outcomes[1].status, SweepStatus::Error);
    EXPECT_FALSE(outcomes[1].ok());
    EXPECT_NE(outcomes[1].error.find("vsv-sweep-fault-test"),
              std::string::npos)
        << outcomes[1].error;
    EXPECT_EQ(outcomes[1].attempts, 1u);

    EXPECT_EQ(outcomes[2].status, SweepStatus::Ok);
    EXPECT_GT(outcomes[2].result.instructions, 0u);

    // The healthy runs match an undisturbed campaign bit for bit.
    const SweepOutcome clean =
        SweepRunner::runOne(goodJob("mcf/base", "mcf", false));
    EXPECT_EQ(outcomes[0].statsJson, clean.statsJson);
}

TEST(SweepFaultTest, IsolatedRunReportsStatusInsteadOfThrowing)
{
    const SweepOutcome outcome =
        SweepRunner::runOneIsolated(faultingJob("broken"));
    EXPECT_EQ(outcome.status, SweepStatus::Error);
    EXPECT_FALSE(outcome.error.empty());
    EXPECT_FALSE(outcome.fingerprint.empty());
}

TEST(SweepFaultTest, RetriesReExecuteFailedRunsOnly)
{
    // Deterministic failures fail every attempt; the outcome records
    // how many were made.
    SweepRunner runner(1, 2);
    EXPECT_EQ(runner.retries(), 2u);
    const std::vector<SweepOutcome> outcomes = runner.run(
        {faultingJob("broken"), goodJob("mcf/base", "mcf", false)});
    EXPECT_EQ(outcomes[0].status, SweepStatus::Error);
    EXPECT_EQ(outcomes[0].attempts, 3u);  // 1 try + 2 retries
    EXPECT_EQ(outcomes[1].status, SweepStatus::Ok);
    EXPECT_EQ(outcomes[1].attempts, 1u);
}

TEST(SweepFaultTest, SoftTimeoutSurfacesAsTimeoutStatus)
{
    // An effectively-infinite run with an already-expired deadline
    // stops at the first poll point.
    SweepJob job = goodJob("mcf/slow", "mcf", false);
    job.options.measureInstructions = 50000000;
    job.softTimeoutSeconds = 1e-9;
    const SweepOutcome outcome = SweepRunner::runOneIsolated(job);
    EXPECT_EQ(outcome.status, SweepStatus::Timeout);
    EXPECT_NE(outcome.error.find("abort hook"), std::string::npos)
        << outcome.error;
    EXPECT_FALSE(outcome.ok());
}

TEST(SweepFaultTest, CallerAbortHookStillFires)
{
    SweepJob job = goodJob("mcf/hook", "mcf", false);
    job.options.measureInstructions = 50000000;
    job.options.abortHook = [] { return true; };
    const SweepOutcome outcome = SweepRunner::runOneIsolated(job);
    EXPECT_EQ(outcome.status, SweepStatus::Timeout);
}

TEST(FingerprintTest, DeterministicAndSensitiveToResults)
{
    const SimulationOptions a = makeOptions("mcf", false, 20000, 5000);
    EXPECT_EQ(configFingerprint(a), configFingerprint(a));
    EXPECT_EQ(configFingerprint(a).size(), 16u);

    SimulationOptions vsv = a;
    vsv.vsv = fsmVsvConfig();
    EXPECT_NE(configFingerprint(a), configFingerprint(vsv));

    SimulationOptions longer = a;
    longer.measureInstructions *= 2;
    EXPECT_NE(configFingerprint(a), configFingerprint(longer));

    SimulationOptions other = makeOptions("ammp", false, 20000, 5000);
    EXPECT_NE(configFingerprint(a), configFingerprint(other));
}

TEST(FingerprintTest, ObservabilitySettingsDoNotPerturbIt)
{
    // Tracing and fast-forward are proven not to change stats, so a
    // re-sweep may toggle them and still replay stored runs.
    const SimulationOptions a = makeOptions("mcf", false, 20000, 5000);
    SimulationOptions traced = a;
    traced.trace.path = "trace.json";
    traced.fastForward = !a.fastForward;
    EXPECT_EQ(configFingerprint(a), configFingerprint(traced));
}

TEST(SweepJsonTest, FailedRunsExportStructuredErrorRecords)
{
    const std::vector<SweepOutcome> outcomes = SweepRunner(1).run(
        {goodJob("mcf/base", "mcf", false), faultingJob("broken")});

    SweepManifest manifest;
    manifest.tool = "sweep_fault_test";
    std::ostringstream os;
    writeSweepJson(os, manifest, outcomes);

    // The document must stay valid JSON with per-run status/error
    // fields; the strict parser is the arbiter.
    const minijson::Value doc = minijson::parse(os.str());
    const minijson::Array &runs = doc.at("runs").array();
    ASSERT_EQ(runs.size(), 2u);

    EXPECT_EQ(runs[0].at("status").str(), "ok");
    EXPECT_TRUE(std::holds_alternative<std::nullptr_t>(
        runs[0].at("error").v));
    EXPECT_EQ(runs[0].at("attempts").num(), 1.0);
    EXPECT_TRUE(runs[0].at("result").isObject());
    EXPECT_TRUE(runs[0].at("stats").isObject());

    EXPECT_EQ(runs[1].at("status").str(), "error");
    EXPECT_TRUE(runs[1].at("error").isString());
    EXPECT_FALSE(runs[1].at("result").isObject());
    EXPECT_FALSE(runs[1].at("stats").isObject());
    EXPECT_TRUE(runs[1].at("fingerprint").isString());
}

/** The `store` counter block of a --json sweep document. */
minijson::Value
manifestStoreBlock(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return minijson::parse(buffer.str()).at("manifest").at("store");
}

void
expectStoreCounters(const std::string &manifest, double hits,
                    double misses, double inserts)
{
    const minijson::Value store = manifestStoreBlock(manifest);
    EXPECT_EQ(store.at("hits").num(), hits);
    EXPECT_EQ(store.at("misses").num(), misses);
    EXPECT_EQ(store.at("inserts").num(), inserts);
}

TEST(StoreReSweepTest, SecondSweepReRunsOnlyTheFailedRun)
{
    const std::string store = tempPath("sweep_store_resweep");
    const std::string manifest = tempPath("sweep_store_resweep.json");
    std::filesystem::remove_all(store);
    ExperimentArgs args;
    args.jsonPath = manifest;
    args.storeDir = store;

    // Sweep 1: one good run, one faulting run. Failed runs are never
    // stored, so only the good one is recorded.
    const std::vector<SweepOutcome> first =
        runSweep(args, "sweep_fault_test",
                 {goodJob("mcf/base", "mcf", false),
                  faultingJob("ammp/base")});
    ASSERT_EQ(first[0].status, SweepStatus::Ok);
    ASSERT_EQ(first[1].status, SweepStatus::Error);
    expectStoreCounters(manifest, 0, 2, 1);

    // Sweep 2: same grid with the fault fixed, same store. The good
    // run replays its recorded bytes; only the fixed one simulates.
    const std::vector<SweepJob> fixed = {
        goodJob("mcf/base", "mcf", false),
        goodJob("ammp/base", "ammp", false)};
    const std::vector<SweepOutcome> second =
        runSweep(args, "sweep_fault_test", fixed);
    expectStoreCounters(manifest, 1, 1, 1);
    EXPECT_EQ(second[0].status, SweepStatus::Ok);
    EXPECT_EQ(second[0].attempts, first[0].attempts);
    EXPECT_EQ(second[0].result.ticks, first[0].result.ticks);
    EXPECT_EQ(second[0].scalars, first[0].scalars);
    EXPECT_EQ(second[0].statsJson, first[0].statsJson);
    EXPECT_EQ(second[1].status, SweepStatus::Ok);
    EXPECT_EQ(second[1].attempts, 1u);
    EXPECT_GT(second[1].result.instructions, 0u);

    // Sweep 3: nothing is left to run.
    const std::vector<SweepOutcome> third =
        runSweep(args, "sweep_fault_test", fixed);
    expectStoreCounters(manifest, 2, 0, 0);
    EXPECT_EQ(third[1].status, SweepStatus::Ok);
    EXPECT_EQ(third[1].statsJson, second[1].statsJson);

    std::filesystem::remove_all(store);
    std::remove(manifest.c_str());
}

TEST(StoreReSweepTest, ChangedConfigurationMissesTheStore)
{
    const std::string store = tempPath("sweep_store_changed");
    const std::string manifest = tempPath("sweep_store_changed.json");
    std::filesystem::remove_all(store);
    ExperimentArgs args;
    args.jsonPath = manifest;
    args.storeDir = store;
    const std::vector<SweepOutcome> first = runSweep(
        args, "sweep_fault_test", {goodJob("mcf/base", "mcf", false)});

    // Same run id, different measurement window: the fingerprint
    // differs, so the run simulates rather than trusting stale numbers.
    SweepJob changed = goodJob("mcf/base", "mcf", false);
    changed.options.measureInstructions = 30000;
    const std::vector<SweepOutcome> outcomes =
        runSweep(args, "sweep_fault_test", {changed});
    expectStoreCounters(manifest, 0, 1, 1);
    EXPECT_EQ(outcomes[0].status, SweepStatus::Ok);
    EXPECT_NE(outcomes[0].fingerprint, first[0].fingerprint);
    EXPECT_GT(outcomes[0].result.instructions,
              first[0].result.instructions);

    std::filesystem::remove_all(store);
    std::remove(manifest.c_str());
}

TEST(TraceOutPathTest, InsertsRunIdBeforeTheExtension)
{
    EXPECT_EQ(traceOutPathForRun("out.json", "mcf/base"),
              "out.mcf-base.json");
    EXPECT_EQ(traceOutPathForRun("dir/out.json", "mcf/base"),
              "dir/out.mcf-base.json");
}

TEST(TraceOutPathTest, ExtensionLessBaseGetsIdAppended)
{
    EXPECT_EQ(traceOutPathForRun("trace", "mcf/base"),
              "trace.mcf-base");
    // A dot inside a directory component is not an extension.
    EXPECT_EQ(traceOutPathForRun("dir.d/trace", "mcf/base"),
              "dir.d/trace.mcf-base");
}

TEST(TraceOutPathTest, DotfileBasesAreNotTreatedAsExtensions)
{
    // ".json" is a dotfile named json, not an empty stem; the run id
    // is appended, never prepended into a hidden-file rename.
    EXPECT_EQ(traceOutPathForRun(".json", "mcf/base"),
              ".json.mcf-base");
    EXPECT_EQ(traceOutPathForRun("dir/.hidden", "mcf/base"),
              "dir/.hidden.mcf-base");
    // But a dotfile with a real extension still splits at it.
    EXPECT_EQ(traceOutPathForRun(".config.json", "mcf/base"),
              ".config.mcf-base.json");
}

TEST(TraceOutPathTest, RunIdSlashesBecomeDashes)
{
    EXPECT_EQ(traceOutPathForRun("out.json", "a/b/c"),
              "out.a-b-c.json");
}

namespace
{

ExperimentArgs
parseArgv(std::initializer_list<const char *> extra)
{
    std::vector<const char *> argv = {"sweep_fault_test"};
    argv.insert(argv.end(), extra.begin(), extra.end());
    return parseExperimentArgs(static_cast<int>(argv.size()),
                               const_cast<char **>(argv.data()), 1000,
                               0, {"gzip"});
}

} // namespace

TEST(BenchmarkListTest, EmptyItemsAreSkipped)
{
    const ExperimentArgs args = parseArgv({"--benchmarks=mcf,,art,"});
    EXPECT_EQ(args.benchmarks,
              (std::vector<std::string>{"mcf", "art"}));
}

TEST(BenchmarkListTest, UnknownNameFailsFastNamingTheFlag)
{
    EXPECT_EXIT(parseArgv({"--benchmarks=mcf,quake3"}),
                ::testing::ExitedWithCode(1),
                "--benchmarks=mcf,quake3.*unknown benchmark 'quake3'");
}

TEST(BenchmarkListTest, AllEmptyListIsFatal)
{
    EXPECT_EXIT(parseArgv({"--benchmarks=,,"}),
                ::testing::ExitedWithCode(1), "no benchmark names");
}

class RetiredFlagTest : public testing::TestWithParam<const char *>
{
};

TEST_P(RetiredFlagTest, IsAnUnknownFlag)
{
    // A script still passing a flag of a retired layer (the
    // distributed campaign, the multi-core topology) must stop with
    // the unknown-flag error, not quietly run something else.
    const std::string flag = GetParam();
    const std::string expected =
        "unknown flag " + flag.substr(0, flag.find('='));
    EXPECT_EXIT(
        {
            const ExperimentArgs args = parseArgv({GetParam()});
            runSweep(args, "sweep_fault_test", {});
        },
        ::testing::ExitedWithCode(1), expected);
}

// Each flag is spelled in two pieces so a search for the retired names
// finds no live use of them in the tree.
INSTANTIATE_TEST_SUITE_P(
    RetiredFlags, RetiredFlagTest,
    testing::Values("--campaign" "-workers=2", "--co" "res=2",
                    "--rail" "-policy=shared",
                    "--core" "-benchmarks=mcf,art"),
    [](const testing::TestParamInfo<const char *> &info) {
        std::string name = info.param + 2;
        name.resize(name.find('='));
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(BenchmarkListTest, HarnessFlagsParse)
{
    const ExperimentArgs args =
        parseArgv({"--retries=2", "--timeout=1.5"});
    EXPECT_EQ(args.retries, 2u);
    EXPECT_DOUBLE_EQ(args.timeoutSeconds, 1.5);
}

} // namespace
} // namespace vsv
