/**
 * @file
 * The traced half of vsvbench: replays a workload's grids serially,
 * in-process, through the public entry point of each layer, in the
 * order SweepRunner::run takes them per run:
 *
 *   ResultStore::lookup -> outcomeFromStoreEntry (hit), else
 *   planLockstep -> runLockstepBatch (per batch), else
 *   WarmupSnapshotCache::acquire -> Simulator::run ->
 *   StatRegistry::scalarMap/dumpJson/dump ->
 *   storeEntryFromOutcome + ResultStore::insert;
 *   per artifact ResultStore::flush and writeSweepJson.
 *
 * Each call gets a span (artifact -> run -> call, sharing the run id);
 * spans stay in memory and are written as Chrome trace JSON at the
 * end. Being serial, the replay's counters are exact, and vsvbench
 * checks them against the end-to-end manifests.
 */

#ifndef VSVBENCH_TRACED_HH
#define VSVBENCH_TRACED_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace vsvbench
{

/** One timed interval; depth 0 = artifact, 1 = run, 2 = call. */
struct Span
{
    std::string name;
    std::string run;
    double start = 0.0;
    double end = 0.0;
    int depth = 0;
};

/** In-memory span recorder. */
class Tracer
{
  public:
    void
    record(std::string name, std::string run, double start, double end,
           int depth)
    {
        spans_.push_back(
            {std::move(name), std::move(run), start, end, depth});
    }

    /** Seconds covered by spans called `name`. */
    double seconds(const std::string &name) const;

    /** Seconds covered by spans of one depth. */
    double secondsAtDepth(int depth) const;

    /** Write every span as Chrome trace-event JSON (Perfetto). */
    void writeChrome(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** Work counted during a replay (times come from the spans). */
struct ReplayCounts
{
    std::uint64_t runs = 0;
    std::uint64_t acquires = 0;
    std::uint64_t warmups = 0;
    std::uint64_t warmupInstructions = 0;
    std::uint64_t restores = 0;
    std::uint64_t diskRestores = 0;
    std::uint64_t lookups = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t batches = 0;
    std::uint64_t batchedRuns = 0;
    /** Serially simulated runs, the ones harness.measure covers. */
    std::uint64_t simInstructions = 0;
    std::uint64_t simTicks = 0;
    std::uint64_t fastForwardedTicks = 0;
    /** Component operations in those runs (micro_components). */
    std::uint64_t cacheAccesses = 0;
    std::uint64_t bpredLookups = 0;
    std::uint64_t committed = 0;
};

/** What one artifact's replay produced. */
struct ArtifactReplay
{
    /** Run outcomes in submission order. */
    std::vector<vsv::SweepOutcome> outcomes;
    vsv::SnapshotCacheStats snapshotCache;
    vsv::LockstepStats lockstep;
    vsv::store::ResultStoreStats store;
};

/**
 * Replay one binary's grid as its sweep would run it, minus the
 * thread pool, writing its manifest to `manifestPath`.
 */
ArtifactReplay replayArtifact(const std::string &tool,
                              const vsv::ExperimentArgs &args,
                              const std::vector<vsv::SweepJob> &jobs,
                              const std::string &manifestPath,
                              Tracer &tracer, ReplayCounts &counts);

/** Per-operation costs from bench/micro_components, in ns. */
struct ComponentCosts
{
    double cacheAccessNs = 0.0;
    double bpredRoundTripNs = 0.0;
    double workloadOpNs = 0.0;
};

/**
 * Run micro_components once (JSON output, only the components the
 * budget uses) and read their ns/op. Throws std::runtime_error when
 * the binary fails or a component is missing from its output.
 */
ComponentCosts measureComponents(const std::string &exe,
                                 const std::string &workDir);

/** A named metric value with its unit. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/**
 * The per-layer metrics of one replay. `e2eSweepSeconds` is the sum
 * of the end-to-end manifests' wallSeconds (for sweep.parallel_eff),
 * `childJobs` their --jobs; `storeDir` and `snapshotDir` are empty
 * when the workload has no such directory.
 */
std::vector<Metric> layerMetrics(const Tracer &tracer,
                                 const ReplayCounts &counts,
                                 const ComponentCosts &costs,
                                 double e2eSweepSeconds, unsigned childJobs,
                                 const std::string &storeDir,
                                 const std::string &snapshotDir);

} // namespace vsvbench

#endif // VSVBENCH_TRACED_HH
