/**
 * @file
 * vsvbench: the reproduction benchmark (README.md in this directory).
 *
 * Timed mode spawns the shipped bench binaries, one fresh process per
 * artifact, closed loop, each with --jobs=4 and --json, and reports
 * the end-to-end metrics with tracing off. Traced mode replays the
 * same grids serially in-process (traced.hh) for the per-layer
 * budget. Every run's outputs are checked against the reference
 * digests in reference/ (seeds 0 and 1) or, at other seeds, against
 * the first repetition.
 *
 *   vsvbench [--workload=NAME|all] [--seed=S] [--seconds=T | --repeat=N]
 *            [--trace=0|1] [--scale=standard|smoke|full] [--work-dir=DIR]
 *   vsvbench --write-reference      regenerate reference/ (slow path)
 *   vsvbench --calibrate            derive end-to-end bounds into
 *                                   BENCHMARK.json
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed and metrics (end-to-end with --trace=0, per-layer with
 * --trace=1).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "common/minijson.hh"
#include "grids.hh"
#include "harness/experiment.hh"
#include "measure.hh"
#include "stats/stats.hh"
#include "traced.hh"

namespace fs = std::filesystem;
using namespace vsvbench;

namespace
{

/** Worker threads per child; the host must have at least this many
 *  cores or the children's schedules would not be comparable. */
constexpr unsigned kChildJobs = 4;

/** Seeds with checked-in reference digests at standard scale: 0 is the
 *  paper's published inputs, 1 the held-out seed for later claims. */
constexpr std::uint64_t kReferenceSeeds = 2;

/** Largest bound BENCHMARK.json accepts for an end-to-end metric. */
constexpr double kMaxBound = 0.25;

/** Repetitions a time-boxed (--seconds) measurement always makes. */
constexpr std::size_t kMinRepetitions = 3;

struct Workload
{
    const char *name;
    const char *grid;
    /** Artifacts share one --store-dir, emptied before each repetition. */
    bool store;
    /** Artifacts share one --snapshot-dir. */
    bool snapshotDir;
    /** The snapshot dir is filled once by an untimed pass and kept. */
    bool prefill;
};

// Why these four: see README.md. paper_cold is the north-star cost;
// paper_persist exercises both memoization layers' writes and reads;
// paper_warm_snapshot computes no warmup (the control for warmup
// work); ablations is the only traffic lockstep batches.
const Workload kWorkloads[] = {
    {"paper_cold", "paper", false, false, false},
    {"paper_persist", "paper", true, true, false},
    {"paper_warm_snapshot", "paper", false, true, true},
    {"ablations", "ablations", false, false, false},
};

struct Options
{
    std::string workload = "all";
    std::uint64_t seed = 0;
    double seconds = 0.0;  ///< > 0: time-boxed instead of --repeat
    std::size_t repeat = 5;
    int trace = -1;        ///< -1: timed and traced; 0 or 1: one of them
    std::string scale = "standard";
    std::string workDir;
    bool writeReference = false;
    bool calibrate = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "vsvbench: " << why << "\n"
              << "usage: vsvbench [--workload=NAME|all] [--seed=S] "
                 "[--seconds=T | --repeat=N] [--trace=0|1]\n"
                 "                [--scale=standard|smoke|full] "
                 "[--work-dir=DIR] [--write-reference] [--calibrate]\n";
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &key, const std::string &value)
{
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos)
        usage("--" + key + " needs a whole number, got '" + value + "'");
    try {
        return std::stoull(value);
    } catch (const std::exception &) {
        usage("--" + key + " out of range: " + value);
    }
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            usage("unexpected argument '" + arg + "'");
        arg = arg.substr(2);
        if (arg == "write-reference") {
            opt.writeReference = true;
            continue;
        }
        if (arg == "calibrate") {
            opt.calibrate = true;
            continue;
        }
        std::string key = arg;
        std::string value;
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            key = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage("--" + key + " needs a value");
        }
        if (key == "workload") {
            opt.workload = value;
        } else if (key == "seed") {
            opt.seed = parseCount(key, value);
        } else if (key == "seconds") {
            opt.seconds = static_cast<double>(parseCount(key, value));
            if (opt.seconds <= 0.0)
                usage("--seconds must be positive");
        } else if (key == "repeat") {
            opt.repeat = parseCount(key, value);
            if (opt.repeat == 0)
                usage("--repeat must be positive");
        } else if (key == "trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1" ? 1 : 0;
        } else if (key == "scale") {
            if (value != "standard" && value != "smoke" && value != "full")
                usage("--scale takes standard, smoke or full");
            opt.scale = value;
        } else if (key == "work-dir") {
            opt.workDir = value;
        } else {
            usage("unknown option --" + key);
        }
    }
    if (opt.workDir.empty())
        usage("--work-dir is required (benchmark/run.sh passes it)");
    if (opt.writeReference && opt.scale != "standard")
        usage("--write-reference writes standard-scale references only");
    return opt;
}

unsigned
usableCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::thread::hardware_concurrency();
}

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
binPath(const std::string &tool)
{
    return std::string(VSVBENCH_BIN_DIR) + "/" + tool;
}

// ---- reference digests ---------------------------------------------

struct RefRun
{
    std::string id;
    std::string fingerprint;
    std::string digest;
};

std::string
referencePath(const std::string &grid, std::uint64_t seed)
{
    return std::string(VSVBENCH_SOURCE_DIR) + "/reference/" + grid +
           ".seed" + std::to_string(seed) + ".json";
}

bool
hasReference(const std::string &scale, std::uint64_t seed)
{
    return scale == "standard" && seed < kReferenceSeeds;
}

/** tool -> its runs in submission order. */
std::map<std::string, std::vector<RefRun>>
loadReference(const std::string &path)
{
    const vsv::minijson::Value doc = vsv::minijson::parse(readFile(path));
    std::map<std::string, std::vector<RefRun>> ref;
    for (const auto &[tool, runs] : doc.at("artifacts").object()) {
        for (const vsv::minijson::Value &r : runs.array()) {
            const vsv::minijson::Array &a = r.array();
            ref[tool].push_back({a.at(0).str(), a.at(1).str(),
                                 a.at(2).str()});
        }
    }
    return ref;
}

// ---- one prepared workload -----------------------------------------

struct Artifact
{
    std::string tool;
    std::vector<std::string> flags;  ///< includes --json
    std::string manifestPath;
    vsv::ExperimentArgs args;
    std::vector<vsv::SweepJob> jobs;
    std::vector<std::string> fingerprints;
    /** Expected outputs; empty (no reference for the scale and seed)
     *  means each repetition is checked against the first instead. */
    std::vector<RefRun> reference;
};

struct Setup
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 0;
    std::string dir;
    std::string storeDir;     ///< empty when the workload has none
    std::string snapshotDir;  ///< likewise
    std::vector<Artifact> artifacts;
    std::size_t runs = 0;
};

std::vector<std::string>
childFlags(const std::string &tool, const std::string &scale,
           std::uint64_t seed, const std::string &storeDir,
           const std::string &snapshotDir)
{
    std::vector<std::string> flags = scaleFlags(tool, scale);
    flags.push_back("--jobs=" + std::to_string(kChildJobs));
    flags.push_back("--seed=" + std::to_string(seed));
    if (!storeDir.empty())
        flags.push_back("--store-dir=" + storeDir);
    if (!snapshotDir.empty())
        flags.push_back("--snapshot-dir=" + snapshotDir);
    return flags;
}

Artifact
makeArtifact(const std::string &tool, std::vector<std::string> flags,
             const std::string &dir)
{
    Artifact a;
    a.tool = tool;
    a.manifestPath = dir + "/" + tool + ".json";
    flags.push_back("--json=" + a.manifestPath);
    a.flags = std::move(flags);
    a.jobs = rebuildGrid(tool, a.flags, a.args);
    for (const vsv::SweepJob &job : a.jobs)
        a.fingerprints.push_back(vsv::configFingerprint(job.options));
    return a;
}

void
resetDir(const std::string &dir)
{
    if (dir.empty())
        return;
    fs::remove_all(dir);
    fs::create_directories(dir);
}

struct Check
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;

    void
    problem(std::string what)
    {
        if (problems.size() < 20)
            problems.push_back(std::move(what));
    }
};

/** One closed-loop pass over a workload's artifacts. */
struct Repetition
{
    double wall = 0.0;
    double setup = 0.0;
    double sweep = 0.0;
    double peakRssMb = 0.0;
    double diskMb = 0.0;
    Check check;
    /** Per artifact; runs empty when the child failed. */
    std::vector<Manifest> manifests;
};

/** First run seen per configFingerprint in one pass: "tool id" and its
 *  digest. Runs sharing a fingerprint are the same simulation, so they
 *  must share a digest, at every seed and scale. */
using SharedRuns = std::map<std::string, std::pair<std::string, std::string>>;

/**
 * Check a manifest against the rebuilt grid, the reference (or, without
 * one, against `baseline`, a prior repetition's digests) and the runs
 * of earlier artifacts with the same fingerprint.
 */
void
checkManifest(const Artifact &a, const Manifest &m,
              const Manifest *baseline, SharedRuns &shared, Check &check)
{
    check.attempted += a.jobs.size();
    if (m.runs.size() != a.jobs.size()) {
        check.failed += a.jobs.size();
        check.problem(a.tool + ": " + std::to_string(m.runs.size()) +
                      " runs in the manifest, grid has " +
                      std::to_string(a.jobs.size()));
        return;
    }
    const std::vector<RefRun> &ref = a.reference;
    for (std::size_t i = 0; i < m.runs.size(); ++i) {
        const ManifestRun &run = m.runs[i];
        std::string why;
        if (run.id != a.jobs[i].id || run.fingerprint != a.fingerprints[i])
            why = "differs from the rebuilt grid (" + a.jobs[i].id + ")";
        else if (run.status != "ok")
            why = "status " + run.status;
        else if (!ref.empty() && (ref[i].id != run.id ||
                                  ref[i].fingerprint != run.fingerprint ||
                                  ref[i].digest != run.digest))
            why = "digest differs from the reference";
        else if (ref.empty() && baseline &&
                 baseline->runs.size() == m.runs.size() &&
                 baseline->runs[i].digest != run.digest)
            why = "digest differs from the first repetition";
        if (why.empty()) {
            const auto [it, first] = shared.try_emplace(
                run.fingerprint, a.tool + " " + run.id, run.digest);
            if (!first && it->second.second != run.digest)
                why = "digest differs from " + it->second.first +
                      ", which has the same fingerprint";
        }
        if (!why.empty()) {
            ++check.failed;
            check.problem(a.tool + " " + run.id + ": " + why);
        }
    }
}

/** Empty a persisting workload's store and snapshot directories. */
void
emptyDiskState(const Setup &s)
{
    if (!s.workload->store)
        return;
    resetDir(s.storeDir);
    resetDir(s.snapshotDir);
    // Write back the last pass's ~50 MB now, not while the next is timed.
    ::sync();
}

Repetition
runRepetition(const Setup &s, const Repetition *baseline)
{
    emptyDiskState(s);
    Repetition rep;
    SharedRuns shared;
    for (std::size_t k = 0; k < s.artifacts.size(); ++k) {
        const Artifact &a = s.artifacts[k];
        fs::remove(a.manifestPath);
        const ChildResult child = runChild(binPath(a.tool), a.flags,
                                           s.dir + "/" + a.tool + ".log");
        rep.wall += child.wallSeconds;
        rep.peakRssMb = std::max(rep.peakRssMb, child.maxRssMb);
        Manifest m;
        bool haveManifest = false;
        if (child.exitedOk) {
            try {
                m = readManifest(a.manifestPath);
                haveManifest = true;
            } catch (const std::exception &e) {
                rep.check.problem(a.tool + ": unreadable manifest: " +
                                  e.what());
            }
        } else {
            rep.check.problem(a.tool + " exited nonzero; see " + s.dir +
                              "/" + a.tool + ".log");
        }
        if (haveManifest) {
            rep.setup += child.wallSeconds - m.wallSeconds;
            rep.sweep += m.wallSeconds;
            checkManifest(a, m,
                          baseline ? &baseline->manifests[k] : nullptr,
                          shared, rep.check);
        } else {
            rep.check.attempted += a.jobs.size();
            rep.check.failed += a.jobs.size();
        }
        rep.manifests.push_back(std::move(m));
    }
    rep.diskMb = dirMegabytes(s.storeDir) + dirMegabytes(s.snapshotDir);
    return rep;
}

Setup
prepare(const Workload &w, const Options &opt)
{
    Setup s;
    s.workload = &w;
    s.seed = opt.seed;
    s.dir = opt.workDir + "/" + w.name;
    fs::create_directories(s.dir);
    if (w.store)
        s.storeDir = s.dir + "/store";
    if (w.snapshotDir)
        s.snapshotDir = s.dir + "/snapshots";
    resetDir(s.storeDir);
    resetDir(s.snapshotDir);
    for (const std::string &tool : gridTools(w.grid)) {
        s.artifacts.push_back(makeArtifact(
            tool,
            childFlags(tool, opt.scale, s.seed, s.storeDir, s.snapshotDir),
            s.dir));
        s.runs += s.artifacts.back().jobs.size();
    }
    if (hasReference(opt.scale, s.seed)) {
        const std::string path = referencePath(w.grid, s.seed);
        auto ref = loadReference(path);
        for (Artifact &a : s.artifacts) {
            a.reference = std::move(ref[a.tool]);
            if (a.reference.size() != a.jobs.size())
                throw std::runtime_error(path + " has no " +
                                         std::to_string(a.jobs.size()) +
                                         "-run grid for " + a.tool);
        }
    }
    // Untimed: one smoke-scale pass of every binary, so the first timed
    // repetition does not pay for cold binaries on an idle host (it ran
    // 13-55% slower than the rest without this).
    for (const Artifact &a : s.artifacts) {
        std::vector<std::string> flags =
            childFlags(a.tool, "smoke", s.seed, "", "");
        flags.push_back("--json=" + s.dir + "/warmup.json");
        runChild(binPath(a.tool), flags, s.dir + "/warmup.log");
    }
    if (w.prefill) {
        // Untimed: fill the snapshot directory the timed passes read.
        const Repetition fill = runRepetition(s, nullptr);
        if (fill.check.failed != 0)
            throw std::runtime_error(std::string(w.name) +
                                     ": snapshot prefill pass failed");
    }
    return s;
}

/** FNV-1a over every run's id and digest, in artifact order. */
std::string
outputsDigest(const Setup &s, const std::vector<Manifest> &manifests)
{
    std::ostringstream os;
    for (std::size_t k = 0; k < manifests.size(); ++k) {
        for (const ManifestRun &run : manifests[k].runs)
            os << s.artifacts[k].tool << '|' << run.id << '|' << run.digest
               << '\n';
    }
    return hexDigest(os.str());
}

/**
 * Mean |measured - paper| in percentage points over the four Figure 4
 * aggregates with FSMs (PAPER.md: MR>4 save 20.7 / degradation 2.0,
 * all benchmarks 7.0 / 0.9). Negative when fig4 is not in `s` or its
 * runs failed.
 */
double
paperErrorPp(const Setup &s, const std::vector<Manifest> &manifests)
{
    for (std::size_t k = 0; k < s.artifacts.size(); ++k) {
        if (s.artifacts[k].tool != "fig4_fsm_effect")
            continue;
        const std::vector<ManifestRun> &runs = manifests[k].runs;
        if (runs.empty() || runs.size() % 3 != 0)
            return -1.0;
        double save[2] = {0, 0}, deg[2] = {0, 0};
        int count[2] = {0, 0};
        for (std::size_t b = 0; b < runs.size(); b += 3) {
            if (runs[b].status != "ok" || runs[b + 2].status != "ok")
                return -1.0;
            const vsv::VsvComparison cmp =
                vsv::makeComparison(runs[b].result, runs[b + 2].result);
            for (int set = 0; set < 2; ++set) {
                if (set == 1 && !(runs[b].result.mr > 4.0))
                    continue;
                save[set] += cmp.powerSavingsPct;
                deg[set] += cmp.perfDegradationPct;
                ++count[set];
            }
        }
        if (count[1] == 0)
            return -1.0;
        return (std::abs(save[1] / count[1] - 20.7) +
                std::abs(deg[1] / count[1] - 2.0) +
                std::abs(save[0] / count[0] - 7.0) +
                std::abs(deg[0] / count[0] - 0.9)) /
               4.0;
    }
    return -1.0;
}

// ---- timed mode ------------------------------------------------------

struct EndToEnd
{
    Summary wall, setup, peakRss, disk;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;
    double paperErrPp = -1.0;
    std::string outputsDigest;
    double elapsed = 0.0;
};

/** Whether one more pass, as long as the mean so far, ends in time. */
bool
anotherFits(std::size_t done, double elapsed, double seconds)
{
    return elapsed + elapsed / static_cast<double>(done) <= seconds;
}

bool
keepGoing(const Options &opt, std::size_t done, double elapsed)
{
    if (opt.seconds <= 0.0)
        return done < opt.repeat;
    return done < kMinRepetitions || anotherFits(done, elapsed, opt.seconds);
}

EndToEnd
timed(const Setup &s, const Options &opt)
{
    std::vector<Repetition> reps;
    const double start = now();
    while (keepGoing(opt, reps.size(), now() - start))
        reps.push_back(runRepetition(s, reps.empty() ? nullptr : &reps[0]));

    EndToEnd e;
    e.elapsed = now() - start;
    std::vector<double> wall, setup, rss, disk;
    for (const Repetition &rep : reps) {
        wall.push_back(rep.wall);
        setup.push_back(rep.setup);
        rss.push_back(rep.peakRssMb);
        disk.push_back(rep.diskMb);
        e.attempted += rep.check.attempted;
        e.failed += rep.check.failed;
        for (const std::string &p : rep.check.problems) {
            if (e.problems.size() < 20)
                e.problems.push_back(p);
        }
    }
    e.wall = summarize(wall);
    e.setup = summarize(setup);
    e.peakRss = summarize(rss);
    e.disk = summarize(disk);
    e.paperErrPp = paperErrorPp(s, reps[0].manifests);
    e.outputsDigest = outputsDigest(s, reps[0].manifests);
    return e;
}

void
printRow(const char *name, const char *unit, const Summary &v)
{
    std::printf("  %-13s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %3zu\n",
                name, unit, v.median, v.q1, v.q3, v.min, v.max, v.n);
}

void
printTimed(const Setup &s, const EndToEnd &e)
{
    std::printf("\n== %s: %zu runs per repetition, seed %llu, checked "
                "against %s ==\n",
                s.workload->name, s.runs,
                static_cast<unsigned long long>(s.seed),
                s.artifacts.front().reference.empty()
                    ? "the first repetition"
                    : "the reference");
    std::printf("  %-13s %-6s %12s %12s %12s %12s %12s %3s\n", "metric",
                "unit", "median", "q1", "q3", "min", "max", "n");
    printRow("wall_s", "s", e.wall);
    printRow("setup_s", "s", e.setup);
    printRow("peak_rss_mb", "MB", e.peakRss);
    printRow("disk_mb", "MB", e.disk);
    std::printf("  %-13s %-6s %12.6g  (%zu of %zu runs)\n", "fail_frac",
                "ratio",
                e.attempted ? static_cast<double>(e.failed) /
                                  static_cast<double>(e.attempted)
                            : 0.0,
                e.failed, e.attempted);
    if (e.paperErrPp >= 0.0)
        std::printf("  %-13s %-6s %12.6g  (Figure 4 FSM aggregates vs "
                    "PAPER.md; model not validated against hardware)\n",
                    "paper_err_pp", "pp", e.paperErrPp);
    std::printf("  outputs_digest %s\n", e.outputsDigest.c_str());
    std::printf("  time per repetition %.3f s (%zu repetitions in %.3f s)\n",
                e.wall.n ? e.elapsed / static_cast<double>(e.wall.n) : 0.0,
                e.wall.n, e.elapsed);
    for (const std::string &p : e.problems)
        std::printf("  FAIL %s\n", p.c_str());
}

// ---- traced mode -----------------------------------------------------

struct TracedResult
{
    std::vector<Metric> metrics;  ///< medians over replays
    std::size_t replays = 0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;
    double elapsed = 0.0;
    std::string outputsDigest;
};

void
compareCounters(const std::string &tool, const Manifest &m,
                const ArtifactReplay &r, Check &check)
{
    const auto same = [&](const char *what, std::uint64_t e2e,
                          std::uint64_t traced) {
        if (e2e != traced)
            check.problem(tool + ": " + what + " " + std::to_string(traced) +
                          " traced vs " + std::to_string(e2e) +
                          " end to end");
    };
    same("snapshotCache.hits", m.snapshotCache.hits, r.snapshotCache.hits);
    same("snapshotCache.misses", m.snapshotCache.misses,
         r.snapshotCache.misses);
    same("snapshotCache.diskHits", m.snapshotCache.diskHits,
         r.snapshotCache.diskHits);
    same("snapshotCache.failures", m.snapshotCache.failures,
         r.snapshotCache.failures);
    same("lockstep.batches", m.lockstep.batches, r.lockstep.batches);
    same("lockstep.batchedRuns", m.lockstep.batchedRuns,
         r.lockstep.batchedRuns);
    same("lockstep.serialRuns", m.lockstep.serialRuns,
         r.lockstep.serialRuns);
    same("lockstep.largestBatch", m.lockstep.largestBatch,
         r.lockstep.largestBatch);
    same("store.hits", m.store.hits, r.store.hits);
    same("store.misses", m.store.misses, r.store.misses);
    same("store.inserts", m.store.inserts, r.store.inserts);
}

TracedResult
traced(const Setup &s, const Options &opt)
{
    TracedResult t;
    const double start = now();
    // One untimed end-to-end pass: the manifests the replay must match.
    const Repetition e2e = runRepetition(s, nullptr);
    t.attempted += e2e.check.attempted;
    t.failed += e2e.check.failed;
    t.problems = e2e.check.problems;
    t.outputsDigest = outputsDigest(s, e2e.manifests);

    const ComponentCosts costs = measureComponents(VSVBENCH_MICRO, s.dir);

    std::vector<std::vector<Metric>> replays;
    const double replayStart = now();
    while (replays.empty() ||
           (opt.seconds > 0.0 &&
            anotherFits(replays.size(), now() - replayStart, opt.seconds))) {
        emptyDiskState(s);
        Tracer tracer;
        ReplayCounts counts;
        Check check;
        for (std::size_t k = 0; k < s.artifacts.size(); ++k) {
            const Artifact &a = s.artifacts[k];
            const ArtifactReplay r = replayArtifact(
                a.tool, a.args, a.jobs, s.dir + "/" + a.tool + ".traced.json",
                tracer, counts);
            const Manifest &m = e2e.manifests[k];
            check.attempted += r.outcomes.size();
            for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
                const vsv::SweepOutcome &o = r.outcomes[i];
                std::string why;
                if (!o.ok())
                    why = "traced run failed: " + o.error;
                else if (i >= m.runs.size() ||
                         outcomeDigest(o) != m.runs[i].digest)
                    why = "traced digest differs from the timed run";
                if (!why.empty()) {
                    ++check.failed;
                    check.problem(a.tool + " " + o.id + ": " + why);
                }
            }
            if (!m.runs.empty())
                compareCounters(a.tool, m, r, check);
        }
        if (replays.empty())
            tracer.writeChrome(s.dir + "/trace.json");
        t.attempted += check.attempted;
        t.failed += check.failed;
        for (const std::string &p : check.problems)
            t.problems.push_back(p);
        replays.push_back(layerMetrics(tracer, counts, costs, e2e.sweep,
                                       kChildJobs, s.storeDir,
                                       s.snapshotDir));
    }
    t.replays = replays.size();
    for (std::size_t i = 0; i < replays[0].size(); ++i) {
        std::vector<double> values;
        for (const std::vector<Metric> &replay : replays)
            values.push_back(replay[i].value);
        t.metrics.push_back({replays[0][i].name, summarize(values).median,
                             replays[0][i].unit});
    }
    t.elapsed = now() - start;
    return t;
}

void
printTraced(const Setup &s, const TracedResult &t)
{
    std::printf("\n== %s traced: %zu serial replay(s), %.3f s with the "
                "end-to-end pass ==\n",
                s.workload->name, t.replays, t.elapsed);
    for (const Metric &m : t.metrics)
        std::printf("  %-32s %-8s %14.6g\n", m.name.c_str(), m.unit,
                    m.value);
    for (const Metric &m : t.metrics) {
        if (m.name == "sweep.attributed_frac" && m.value < 0.95)
            std::printf("  WARN spans cover only %.3f of the traced time\n",
                        m.value);
    }
    std::printf("  outputs_digest %s\n", t.outputsDigest.c_str());
    for (const std::string &p : t.problems)
        std::printf("  FAIL %s\n", p.c_str());
}

// ---- result line -------------------------------------------------------

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"metrics\":{";
    bool first = true;
    for (const Metric &m : metrics) {
        os << (first ? "" : ",") << '"' << vsv::jsonEscape(m.name)
           << "\":{\"value\":" << vsv::jsonNumber(m.value)
           << ",\"unit\":\"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

void
printProvenance(const Options &opt, const std::vector<Setup> &setups)
{
    std::ostringstream os;
    os << "{\"cpu\":\"" << vsv::jsonEscape(cpuModel()) << '"'
       << ",\"nproc\":" << usableCores() << ",\"compiler\":\""
       << vsv::jsonEscape(VSVBENCH_COMPILER) << "\",\"buildType\":\""
       << VSVBENCH_BUILD_TYPE << "\",\"gitDescribe\":\""
       << vsv::jsonEscape(vsv::buildGitDescribe()) << '"'
       << ",\"childJobs\":" << kChildJobs << ",\"scale\":\"" << opt.scale
       << "\",\"seed\":" << opt.seed << ",\"reference\":"
       << (hasReference(opt.scale, opt.seed) ? "true" : "false");
    if (opt.seconds > 0.0)
        os << ",\"seconds\":" << opt.seconds;
    else
        os << ",\"repeat\":" << opt.repeat;
    os << ",\"runsPerRepetition\":{";
    bool first = true;
    for (const Setup &s : setups) {
        os << (first ? "" : ",") << '"' << s.workload->name
           << "\":" << s.runs;
        first = false;
    }
    os << "}}";
    std::printf("provenance %s\n", os.str().c_str());
}

// ---- reference and calibration -------------------------------------------

int
writeReferences(const Options &opt)
{
    // The plain path: every run simulated alone with its own warmup and
    // no disk state. Fast-forward stays on: --no-fast-forward differs
    // from it in the last bits of power.energy.* on ablation_vsv's
    // slow-ramp runs, so it cannot serve as the reference for both.
    const std::vector<std::string> slow = {"--no-lockstep",
                                           "--no-snapshot-cache"};
    const std::string dir = opt.workDir + "/reference";
    fs::create_directories(dir);
    fs::create_directories(fs::path(referencePath("paper", 0)).parent_path());
    for (const char *grid : {"paper", "ablations"}) {
        for (std::uint64_t seed = 0; seed < kReferenceSeeds; ++seed) {
            std::ostringstream doc;
            doc << "{\"grid\": \"" << grid << "\", \"seed\": " << seed
                << ", \"scale\": \"standard\",\n \"artifacts\": {";
            bool firstTool = true;
            SharedRuns shared;
            for (const std::string &tool : gridTools(grid)) {
                std::vector<std::string> flags =
                    childFlags(tool, "standard", seed, "", "");
                flags.insert(flags.end(), slow.begin(), slow.end());
                const Artifact a = makeArtifact(tool, flags, dir);
                const ChildResult child = runChild(
                    binPath(tool), a.flags, dir + "/" + tool + ".log");
                if (!child.exitedOk)
                    throw std::runtime_error(tool + " failed; see " + dir);
                const Manifest m = readManifest(a.manifestPath);
                Check check;
                checkManifest(a, m, nullptr, shared, check);
                if (check.failed != 0)
                    throw std::runtime_error(tool + ": " +
                                             check.problems.front());
                doc << (firstTool ? "" : ",") << "\n  \"" << tool
                    << "\": [";
                for (std::size_t i = 0; i < m.runs.size(); ++i) {
                    doc << (i ? "," : "") << "\n   [\"" << m.runs[i].id
                        << "\", \"" << m.runs[i].fingerprint << "\", \""
                        << m.runs[i].digest << "\"]";
                }
                doc << "\n  ]";
                firstTool = false;
                std::fprintf(stderr, "reference %s seed %llu %s: %zu runs, "
                             "%.1f s\n", grid,
                             static_cast<unsigned long long>(seed),
                             tool.c_str(), m.runs.size(), child.wallSeconds);
            }
            doc << "\n }}\n";
            std::ofstream os(referencePath(grid, seed));
            os << doc.str();
            if (!os)
                throw std::runtime_error("cannot write " +
                                         referencePath(grid, seed));
        }
    }
    return 0;
}

/** Replace the "bound" of end-to-end metric `name` in BENCHMARK.json. */
std::string
setBound(const std::string &json, const std::string &name, double bound)
{
    const std::regex entry("\"name\":\\s*\"" + name +
                           "\"[^}]*\"bound\":\\s*([0-9.eE+-]+)");
    std::smatch match;
    if (!std::regex_search(json, match, entry))
        throw std::runtime_error("BENCHMARK.json has no bound for " + name);
    char value[32];
    std::snprintf(value, sizeof(value), "%.3g", bound);
    const auto at = static_cast<std::size_t>(match.position(1));
    return json.substr(0, at) + value +
           json.substr(at + static_cast<std::size_t>(match.length(1)));
}

/**
 * One end-to-end metric's calibration. A sample is one run's median, as
 * the benchmark reports it: the bound guards those medians, so it must
 * cover their spread within a set and their drift between sets.
 */
struct Calibration
{
    const char *name;
    /** Floor as a share of the median, or (when `absolute`) in the
     *  metric's unit, divided by its smallest median. */
    double floor;
    bool absolute;
    /** Run medians of each set, by workload. */
    std::map<std::string, std::vector<double>> sets[2];

    /**
     * max(floor, 2 x the worst relative IQR of a set's run medians, the
     * worst relative shift of a workload's median between the sets),
     * printing each workload's numbers.
     */
    double
    derive() const
    {
        double smallest = 0.0;
        double worst = 0.0;
        for (const auto &[workload, runs] : sets[0]) {
            const Summary a = summarize(runs);
            const Summary b = summarize(sets[1].at(workload));
            const double shift = std::abs(b.median - a.median) / a.median;
            std::printf("  %-12s %-20s median %.6g / %.6g, relative IQR "
                        "%.4f / %.4f, shift %.4f\n",
                        name, workload.c_str(), a.median, b.median,
                        a.relIqr(), b.relIqr(), shift);
            worst = std::max({worst, 2.0 * a.relIqr(), 2.0 * b.relIqr(),
                              shift});
            for (const double median : {a.median, b.median}) {
                if (smallest == 0.0 || median < smallest)
                    smallest = median;
            }
        }
        return std::max(absolute ? floor / smallest : floor, worst);
    }
};

int
calibrate(Options opt)
{
    // Two sets of five runs per workload. Each run is what the benchmark
    // reports for one seed (seeds S to S+4, then S+5 to S+9), time-boxed
    // to run_seconds, with its own set-up. Back-to-back repetitions miss
    // the host-speed drift of minutes that separates the runs a bound
    // compares. A metric whose derived bound exceeds kMaxBound is
    // unresolved on this host: BENCHMARK.json cannot hold its bound, so
    // it gets kMaxBound and the report says so.
    const std::string path =
        std::string(VSVBENCH_SOURCE_DIR) + "/../BENCHMARK.json";
    std::string json = readFile(path);
    if (opt.seconds <= 0.0)
        opt.seconds = vsv::minijson::parse(json).at("run_seconds").num();
    Calibration wall{"wall_s", 0.05, false, {}};
    Calibration setup{"setup_s", 0.05, true, {}};
    Calibration rss{"peak_rss_mb", 0.05, false, {}};
    const std::uint64_t firstSeed = opt.seed;
    for (int set = 0; set < 2; ++set) {
        for (const Workload &w : kWorkloads) {
            for (int i = 0; i < 5; ++i) {
                opt.seed = firstSeed + static_cast<std::uint64_t>(set * 5 + i);
                const EndToEnd e = timed(prepare(w, opt), opt);
                if (e.failed != 0)
                    throw std::runtime_error(std::string(w.name) +
                                             ": calibration run failed");
                std::printf("set %d %-20s seed %llu: wall_s %.6g setup_s "
                            "%.6g peak_rss_mb %.6g\n",
                            set + 1, w.name,
                            static_cast<unsigned long long>(opt.seed),
                            e.wall.median, e.setup.median,
                            e.peakRss.median);
                std::fflush(stdout);
                wall.sets[set][w.name].push_back(e.wall.median);
                setup.sets[set][w.name].push_back(e.setup.median);
                rss.sets[set][w.name].push_back(e.peakRss.median);
            }
        }
    }
    std::map<std::string, double> bounds;
    for (const Calibration *c : {&wall, &rss, &setup}) {
        const double derived = c->derive();
        double bound = std::min(derived, kMaxBound);
        std::printf("bound %-12s derived %.3g (floor %.3g%s)", c->name,
                    derived, c->floor, c->absolute ? " s" : "");
        if (derived > kMaxBound)
            std::printf(" UNRESOLVED on this host: writing %.3g, a "
                        "regression smaller than the spread goes "
                        "undetected", kMaxBound);
        // Set-up time keeps the largest bound, so work moved into set-up
        // cannot hide behind a tighter one.
        if (c == &setup) {
            for (const auto &[name, other] : bounds) {
                if (other > bound) {
                    bound = other;
                    std::printf(" raised to %s's %.3g", name.c_str(), other);
                }
            }
        }
        std::printf("\n");
        bounds[c->name] = bound;
        json = setBound(json, c->name, bound);
    }
    std::ofstream os(path);
    os << json;
    return os ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    try {
        if (usableCores() < kChildJobs) {
            std::cerr << "vsvbench: needs at least " << kChildJobs
                      << " cores for --jobs=" << kChildJobs
                      << " children, have " << usableCores() << "\n";
            return 1;
        }
        if (opt.writeReference)
            return writeReferences(opt);
        if (opt.calibrate)
            return calibrate(opt);

        std::vector<Setup> setups;
        for (const Workload &w : kWorkloads) {
            if (opt.workload == "all" || opt.workload == w.name)
                setups.push_back(prepare(w, opt));
        }
        if (setups.empty())
            usage("unknown workload '" + opt.workload + "'");

        printProvenance(opt, setups);
        bool correct = true;
        std::size_t attempted = 0, failed = 0;
        std::vector<Metric> metrics;
        const bool one = setups.size() == 1;
        for (const Setup &s : setups) {
            const auto name = [&](const std::string &metric) {
                return one ? metric
                           : std::string(s.workload->name) + "." + metric;
            };
            std::string timedDigest;
            if (opt.trace != 1) {
                const EndToEnd e = timed(s, opt);
                printTimed(s, e);
                attempted += e.attempted;
                failed += e.failed;
                correct = correct && e.problems.empty();
                timedDigest = e.outputsDigest;
                metrics.push_back({name("wall_s"), e.wall.median, "s"});
                metrics.push_back({name("setup_s"), e.setup.median, "s"});
                metrics.push_back(
                    {name("peak_rss_mb"), e.peakRss.median, "MB"});
            }
            if (opt.trace != 0) {
                const TracedResult t = traced(s, opt);
                printTraced(s, t);
                attempted += t.attempted;
                failed += t.failed;
                correct = correct && t.problems.empty();
                if (!timedDigest.empty() && timedDigest != t.outputsDigest) {
                    std::printf("  FAIL %s: traced outputs differ from the "
                                "timed ones\n", s.workload->name);
                    correct = false;
                }
                for (const Metric &m : t.metrics)
                    metrics.push_back({name(m.name), m.value, m.unit});
            }
        }
        correct = correct && failed == 0;
        printResult(correct, attempted, failed, metrics);
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "vsvbench: " << e.what() << "\n";
        return 1;
    }
}
