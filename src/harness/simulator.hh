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
#include <memory>
#include <optional>
#include <span>
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
#include "snapshot/bytes.hh"
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

/**
 * One wired-up simulation instance: a shared front-end (workload,
 * core, predictor, caches) driving one or more rails. A rail is one
 * configuration's pipeline supply - a VsvController plus the
 * PowerModel it drives - with its own stat registry and results. Rail
 * 0 is the leader, whose options build the front-end; further rails
 * are lockstep replicas (DESIGN.md §5h).
 */
class Simulator
{
  public:
    explicit Simulator(const SimulationOptions &options)
        : Simulator(std::span(&options, 1))
    {
    }

    /**
     * Lockstep: one rail per entry of `rails`, all riding the same
     * decoded micro-op stream, front-end and memory hierarchy. The
     * shared front-end is built from rails[0]; the other entries are
     * read only for their `power` and `vsv` configs. Legal only for
     * configs whose *timing* is identical to the leader's (equal
     * structuralFingerprint(); with VSV off that ignores the VSV knobs
     * and the L2 miss-detect latency, which never act), so every rail
     * has the leader's `vsv.enabled`. A rail whose pipeline-edge
     * schedule ever diverges from the leader's is a fatal()
     * (throwable inside a sweep worker, where the batch falls back to
     * serial execution).
     */
    explicit Simulator(std::span<const SimulationOptions> rails);
    ~Simulator();

    /** Run warmup + measurement; may be called once. Returns the
     *  leader's results; result(r) holds every rail's. */
    SimulationResult run();

    /**
     * Run the functional warmup now (idempotent; run() calls it
     * automatically when neither this nor restoreFrom() has run).
     * Splitting it out lets a caller warm up once, snapshot() the
     * result, and hand the bytes to other runs of the same
     * warmup-affecting configuration.
     */
    void warmup();

    /**
     * Serialize the post-warmup state of every warmup-mutable
     * component (see src/snapshot/snapshot.hh for the format) into one
     * fresh buffer. Requires warmup() done and run() not yet called.
     * `fingerprint` is recorded in the header - pass
     * warmupFingerprint(options) so restores can verify provenance.
     */
    SnapshotBytes snapshot(std::string_view fingerprint) const;

    /**
     * Adopt post-warmup state from snapshot bytes instead of warming
     * up, reading them in place; a following run() starts measuring
     * immediately and produces bit-identical results to a fresh-warmup
     * run. Any structural problem (corruption, truncation, version
     * skew, geometry/config mismatch, or - when
     * `expected_fingerprint` is non-empty - a fingerprint mismatch)
     * is a fatal(): throwable inside a sweep worker, where the cache
     * treats it as a miss. Single-rail simulators only.
     */
    void restoreFrom(std::string_view bytes,
                     std::string_view expected_fingerprint = {});

    /** True once warmup state exists (warmed up or restored). */
    bool warmedUp() const { return warmedUp_; }

    /** Number of rails, the leader included. */
    std::size_t railCount() const { return power.size(); }

    /** Rail r's measured-window results (valid after run()). */
    const SimulationResult &result(std::size_t rail) const
    {
        return results.at(rail);
    }

    /**
     * Rail r's stat registry (valid after run()): its own power/vsv
     * scalars plus the shared front-end scalars, registered in the
     * exact serial order so stat dumps are bit-identical to a serial
     * run of that config.
     */
    const StatRegistry &stats(std::size_t rail = 0) const
    {
        return registry.at(rail);
    }

    /** Component access for tests and examples (the leader's rail). */
    const VsvController &controller() const { return vsvCtrl[0]; }
    const MemoryHierarchy &memory() const { return *hierarchy; }
    const PowerModel &powerModel() const { return power[0]; }
    const Core &core() const { return *cpu; }

    /** The event sink, or nullptr when tracing is off. */
    const TraceSink *trace() const { return traceSink.get(); }

  private:
    void functionalWarmup();

    /** Forwards hierarchy L2-miss events to every rail's controller,
     *  in rail order. */
    struct MissFanout final : MissListener
    {
        std::span<VsvController> rails;
        void
        demandL2MissDetected(Tick when, std::uint32_t outstanding) override
        {
            for (VsvController &c : rails)
                c.demandL2MissDetected(when, outstanding);
        }
        void
        demandL2MissReturned(Tick when, std::uint32_t outstanding) override
        {
            for (VsvController &c : rails)
                c.demandL2MissReturned(when, outstanding);
        }
    };

    SimulationOptions options;  ///< the leader's

    // The rails, structure of arrays with index 0 the leader. Sized
    // exactly once, in the constructor: components hold their rail's
    // PowerModel& and the fanouts hold spans, so these vectors never
    // reallocate.
    std::vector<PowerModel> power;
    std::vector<VsvController> vsvCtrl;
    std::vector<StatRegistry> registry;
    std::vector<SimulationResult> results;
    MissFanout missFanout;

    std::unique_ptr<MemoryHierarchy> hierarchy;
    std::unique_ptr<TimekeepingPrefetcher> tk;
    std::unique_ptr<StridePrefetcher> stride;
    std::unique_ptr<BranchPredictor> predictor;
    std::unique_ptr<WorkloadGenerator> workload;
    std::unique_ptr<Core> cpu;
    std::unique_ptr<TraceSink> traceSink;
    std::unique_ptr<IntervalStatsSampler> sampler;

    Tick warmupTicks = 0;
    bool warmedUp_ = false;
    bool ran = false;
};

} // namespace vsv

#endif // VSV_HARNESS_SIMULATOR_HH
