/**
 * @file
 * Top-level simulator: wires the core, the memory hierarchy, the
 * power model and the VSV controller together and runs one benchmark
 * configuration end to end.
 *
 * A run has two phases, mirroring the paper's methodology (fast-
 * forward with cache warmup, then detailed simulation):
 *
 *  1. Functional warmup: the trace is streamed through the caches,
 *     branch predictor and the Time-Keeping engine with no pipeline
 *     timing. This stands in for the paper's
 *     two-billion-instruction fast-forward: it removes cold misses
 *     from the measured window and - critically for Time-Keeping -
 *     trains the address predictor's correlations before measurement
 *     starts.
 *  2. Measured execution: the tick loop. Each tick the memory
 *     system's events are serviced, the VSV controller advances (and
 *     decides whether the pipeline clock has an edge), the core runs
 *     one pipeline cycle on an edge, the issue count feeds the FSMs,
 *     and the power model closes the tick.
 *
 * Results are deltas across the measured window only.
 */

#ifndef VSV_HARNESS_SIMULATOR_HH
#define VSV_HARNESS_SIMULATOR_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "branch/predictor.hh"
#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "power/model.hh"
#include "prefetch/stride.hh"
#include "prefetch/timekeeping.hh"
#include "stats/stats.hh"
#include "trace/interval.hh"
#include "trace/sink.hh"
#include "vsv/controller.hh"
#include "workload/workload.hh"

namespace vsv
{

/**
 * Thrown by Simulator::run when the abort hook fires. The sweep
 * runner turns it into a per-run "timeout" outcome; outside a sweep
 * it propagates like any other exception.
 */
class SimulationAborted : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Everything one run needs. */
struct SimulationOptions
{
    WorkloadProfile profile;
    std::uint64_t warmupInstructions = 300000;
    std::uint64_t measureInstructions = 1000000;
    bool timekeeping = false;  ///< enable the TK hardware prefetcher
    /** Enable the conventional stream prefetcher instead (mutually
     *  exclusive with timekeeping). */
    bool stridePrefetch = false;
    VsvConfig vsv{};           ///< vsv.enabled=false => baseline run
    /**
     * Idle-tick fast-forward: when the core is provably stalled and
     * no memory event is due, jump time forward and apply the skipped
     * ticks' bookkeeping in bulk. Statistically invisible (results and stats are bit-identical
     * either way; see DESIGN.md §5d); disable (--no-fast-forward) to
     * force the paranoid per-tick loop.
     */
    bool fastForward = true;
    /**
     * Event tracing (trace.path empty = off). The measured window is
     * recorded into a TraceSink and written as Chrome trace-event
     * JSON at the end of run(); see OBSERVABILITY.md. Tracing never
     * perturbs results: stats are bit-identical with tracing on or
     * off, and fast-forwarded runs produce equivalent event streams
     * (DESIGN.md §5e).
     */
    TraceConfig trace{};
    /**
     * Soft abort hook: polled every few thousand loop iterations of
     * warmup and measurement; returning true raises
     * SimulationAborted. The sweep runner installs a wall-clock
     * deadline here for per-run soft timeouts (--timeout). Never
     * consulted when empty, so it cannot perturb results.
     */
    std::function<bool()> abortHook;
    PowerModelConfig power{};
    HierarchyConfig hierarchy{};
    CoreConfig core{};
    BranchPredictorConfig branch{};
    TimekeepingConfig tk{};
    StridePrefetcherConfig stride{};
};

/** Whole-run metrics (measured window only). */
struct SimulationResult
{
    std::string benchmark;
    std::uint64_t instructions = 0;
    Tick ticks = 0;              ///< wall time in full-speed cycles
    std::uint64_t pipelineCycles = 0;
    double ipc = 0.0;            ///< instructions per full-speed cycle
    double mr = 0.0;             ///< demand L2 misses / 1000 insts
    double energyPj = 0.0;
    double avgPowerW = 0.0;
    std::uint64_t downTransitions = 0;
    std::uint64_t upTransitions = 0;
    double lowModeFraction = 0.0;  ///< fraction of ticks at VDDL-ish

    // Throughput observability (host-dependent; excluded from the
    // determinism contract - see DESIGN.md §5d).
    double wallSeconds = 0.0;      ///< host time in the measured loop
    double kinstPerSec = 0.0;      ///< simulated kilo-instructions/s
    Tick fastForwardedTicks = 0;   ///< ticks skipped by fast-forward
    double ffTickFraction = 0.0;   ///< fastForwardedTicks / ticks
};

/** One wired-up simulation instance. */
class Simulator
{
  public:
    explicit Simulator(const SimulationOptions &options);
    ~Simulator();

    /** Run warmup + measurement; may be called once. */
    SimulationResult run();

    /**
     * Run the functional warmup now (idempotent; run() calls it
     * automatically when neither this nor restoreFrom() has run).
     * Splitting it out lets a caller warm up once, snapshotTo() the
     * result, and hand the bytes to other runs of the same
     * warmup-affecting configuration.
     */
    void warmup();

    /**
     * Serialize the post-warmup state of every warmup-mutable
     * component into `os` (see src/snapshot/snapshot.hh for the
     * format). Requires warmup() done and run() not yet called.
     * `fingerprint` is recorded in the header - pass
     * warmupFingerprint(options) so restores can verify provenance.
     */
    void snapshotTo(std::ostream &os, std::string_view fingerprint) const;

    /**
     * Adopt post-warmup state from a snapshot stream instead of
     * warming up; a following run() starts measuring immediately and
     * produces bit-identical results to a fresh-warmup run. Any
     * structural problem (corruption, truncation, version skew,
     * geometry/config mismatch, or - when
     * `expected_fingerprint` is non-empty - a fingerprint mismatch)
     * is a fatal(): throwable inside a sweep worker, where the cache
     * treats it as a miss.
     */
    void restoreFrom(std::istream &is,
                     std::string_view expected_fingerprint = {});

    /** True once warmup state exists (warmed up or restored). */
    bool warmedUp() const { return warmedUp_; }

    /**
     * Lockstep replicas (config-parallel execution, DESIGN.md §5h):
     * attach one extra VSV-config + power-config pair that rides the
     * same decoded micro-op stream, front-end and memory hierarchy as
     * this simulator's own ("leader") configuration. Each replica owns
     * only a PowerModel + VsvController + rail state; the shared
     * front-end's recordAccess()/tick() calls and L2-miss events fan
     * out to every replica, and each replica drives its own pipeline
     * VDD. Legal only before warmup()/run(), and only for configs whose *timing* is identical to the
     * leader's (same thresholds, divider, up-policy, circuit ticks
     * and derived ramp duration - see structuralFingerprint()); a
     * replica whose pipeline-edge schedule ever diverges from the
     * leader's is a fatal() (throwable inside a sweep worker, where
     * the batch falls back to serial execution).
     */
    void addReplica(const PowerModelConfig &power, const VsvConfig &vsv);

    /** Number of attached replicas (leader not counted). */
    std::size_t replicaCount() const { return replicaConfigs.size(); }

    /** Replica r's measured-window results (valid after run()). */
    const SimulationResult &replicaResult(std::size_t r) const
    {
        return replicaResults_.at(r);
    }

    /**
     * Replica r's stat registry: its own power/vsv scalars plus the
     * shared front-end scalars, registered in the exact serial order
     * so stat dumps are bit-identical to a serial run of that config.
     */
    const StatRegistry &replicaStats(std::size_t r) const
    {
        return replicaRegistries.at(r);
    }

    /** Access to the stat registry (valid after run()). */
    const StatRegistry &stats() const { return registry; }

    /** Component access for tests and examples. */
    const VsvController &controller() const { return *vsvCtrl; }
    const MemoryHierarchy &memory() const { return *hierarchy; }
    const PowerModel &powerModel() const { return *power; }
    const Core &core() const { return *cpu; }

    /** The event sink, or nullptr when tracing is off. */
    const TraceSink *trace() const { return traceSink.get(); }

  private:
    void functionalWarmup();
    /** Build replica state + fanout wiring; runs once, pre-warmup. */
    void materializeReplicas();

    /** Forwards hierarchy L2-miss events to the leader controller and
     *  every replica controller, in attach order. */
    struct MissFanout : MissListener
    {
        std::vector<MissListener *> targets;
        void
        demandL2MissDetected(Tick when, std::uint32_t outstanding) override
        {
            for (MissListener *t : targets)
                t->demandL2MissDetected(when, outstanding);
        }
        void
        demandL2MissReturned(Tick when, std::uint32_t outstanding) override
        {
            for (MissListener *t : targets)
                t->demandL2MissReturned(when, outstanding);
        }
    };

    /** Deferred replica configs (materialized just before warmup). */
    struct ReplicaConfig
    {
        PowerModelConfig power;
        VsvConfig vsv;
    };

    SimulationOptions options;
    StatRegistry registry;

    std::unique_ptr<PowerModel> power;
    std::unique_ptr<MemoryHierarchy> hierarchy;
    std::unique_ptr<TimekeepingPrefetcher> tk;
    std::unique_ptr<StridePrefetcher> stride;
    std::unique_ptr<BranchPredictor> predictor;
    std::unique_ptr<WorkloadGenerator> workload;
    std::unique_ptr<VsvController> vsvCtrl;
    std::unique_ptr<Core> cpu;
    std::unique_ptr<TraceSink> traceSink;
    std::unique_ptr<IntervalStatsSampler> sampler;

    // Lockstep replica state, SoA: one exact-reserve()d arena vector
    // per component kind (PowerModel, VsvController), so the hot
    // per-tick loop walks contiguous memory and the PowerModel&
    // references held by the controllers can never be invalidated by
    // reallocation. Empty in ordinary (serial) runs.
    std::vector<ReplicaConfig> replicaConfigs;
    std::vector<PowerModel> replicaPower;
    std::vector<VsvController> replicaCtrl;
    std::vector<PowerModel *> replicaPowerPtrs;
    std::vector<StatRegistry> replicaRegistries;
    std::vector<SimulationResult> replicaResults_;
    std::unique_ptr<MissFanout> missFanout;

    Tick warmupTicks = 0;
    bool warmedUp_ = false;
    bool ran = false;
};

} // namespace vsv

#endif // VSV_HARNESS_SIMULATOR_HH
