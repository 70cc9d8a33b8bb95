/**
 * @file
 * Experiment plumbing shared by the per-figure benchmark binaries:
 * the common command-line parser (--instructions/--warmup/
 * --benchmarks/--jobs/--json/--seed), option construction,
 * baseline-vs-VSV deltas, sweep execution, and fixed-width table
 * output matching the rows the paper reports.
 */

#ifndef VSV_HARNESS_EXPERIMENT_HH
#define VSV_HARNESS_EXPERIMENT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/config.hh"
#include "harness/simulator.hh"
#include "harness/sweep.hh"

namespace vsv
{

/**
 * The command-line surface every experiment binary shares. Extra
 * binary-specific keys stay readable through `config`.
 */
struct ExperimentArgs
{
    Config config;
    std::vector<std::string> positional;
    std::uint64_t instructions = 0;
    std::uint64_t warmup = 0;
    /** Worker threads for the sweep (--jobs; 0 = the default = auto:
     *  std::thread::hardware_concurrency(), clamped to [1, 64] in
     *  SweepRunner and reported in the manifest's `threads`; an
     *  explicit --jobs=N is used as given). */
    unsigned jobs = 0;
    /** Lockstep batch width: up to 16 structurally identical configs
     *  share one front-end (lockstep.hh); --no-lockstep sets 0 and
     *  forces every run serial. Results are bit-identical either
     *  way. */
    unsigned lockstep = 16;
    /** When nonempty, write the sweep JSON document here (--json). */
    std::string jsonPath;
    /** Sweep seed mixed into every run's profile seed (--seed). */
    std::uint64_t seed = 0;
    /** --benchmarks=a,b,c, or the binary's default set. */
    std::vector<std::string> benchmarks;
    /** Idle-tick fast-forward; --no-fast-forward forces the paranoid
     *  per-tick loop (results are bit-identical either way). */
    bool fastForward = true;
    /** When nonempty, write a Chrome trace-event JSON per run
     *  (--trace-out; see OBSERVABILITY.md). */
    std::string traceOut;
    /** --trace-categories=mode,fsm,... ("" or "all" = everything). */
    std::string traceCategories;
    /** --interval-stats=N: interval-stats epoch length in ticks. */
    std::uint64_t intervalStats = 0;
    /** --timeout=SECONDS: per-run soft timeout (0 = none). */
    double timeoutSeconds = 0.0;
    /** Deduplicate warmup across the sweep's runs through a
     *  WarmupSnapshotCache; --no-snapshot-cache turns it off
     *  (results are bit-identical either way). */
    bool snapshotCache = true;
    /** --snapshot-dir=DIR: persist warmup snapshots on disk so later
     *  sweeps skip warmup too. */
    std::string snapshotDir;
    /** --store-dir=DIR: content-addressed result store (STORE.md). A
     *  run whose configuration fingerprint is already stored replays
     *  the recorded bytes instead of simulating; fresh Ok runs are
     *  recorded for the next sweep, so re-invoking a sweep with the
     *  same directory re-runs only failed or changed runs. Empty = no
     *  store. */
    std::string storeDir;
    /** Should this invocation read/write the result store? */
    bool storeEnabled() const { return !storeDir.empty(); }
};

/**
 * Parse the shared flags; unknown keys stay pending in `config`.
 * `--list-benchmarks` prints the SPEC2K profile table (names plus
 * their Table 2 calibration targets) and exits 0 without running
 * anything.
 */
ExperimentArgs parseExperimentArgs(
    int argc, char **argv, std::uint64_t default_instructions,
    std::uint64_t default_warmup,
    const std::vector<std::string> &default_benchmarks = {});

/**
 * Print the SPEC2K benchmark table backing --benchmarks: one row per
 * profile with its Table 2 targets (IPC, baseline MR, MR with
 * Time-Keeping) and TK warmup length.
 */
void printBenchmarkList(std::ostream &os);

/**
 * Execute the grid on a SweepRunner sized by args.jobs (honouring
 * --timeout) and, when --json was given, write the
 * machine-readable sweep document (manifest + per-run results and
 * stats). With --store-dir, runs the store already holds replay
 * instead of re-executing. Rejects any command-line flag no code path
 * has asked for (Config::rejectUnknown), so call it after the binary
 * has read all of its extra keys. Outcomes come back in submission
 * order regardless of thread count; failed runs are Error/Timeout
 * outcomes, never a crash.
 */
std::vector<SweepOutcome> runSweep(const ExperimentArgs &args,
                                   const std::string &tool,
                                   const std::vector<SweepJob> &jobs);

/**
 * warn() once per failed (non-ok) outcome and return how many there
 * were; binaries turn a nonzero return into exit code 1 instead of
 * silently tabulating default-constructed results.
 */
std::size_t reportSweepFailures(
    const std::vector<SweepOutcome> &outcomes);

/** Baseline/VSV pair for one benchmark and one VSV configuration. */
struct VsvComparison
{
    SimulationResult base;
    SimulationResult vsv;
    /** Execution-time increase, % of the baseline (Figure 4 top). */
    double perfDegradationPct = 0.0;
    /** Average-power reduction, % of the baseline (Figure 4 bottom). */
    double powerSavingsPct = 0.0;
};

/**
 * Standard options for one benchmark run. `instructions` of 0 picks
 * the suite default; the VSV controller starts disabled (baseline).
 */
SimulationOptions makeOptions(const std::string &benchmark,
                              bool timekeeping,
                              std::uint64_t instructions = 0,
                              std::uint64_t warmup = 0);

/**
 * Same, driven by parsed experiment arguments: applies
 * --instructions/--warmup and the --no-fast-forward switch.
 */
SimulationOptions makeOptions(const ExperimentArgs &args,
                              const std::string &benchmark,
                              bool timekeeping = false);

/**
 * Derive a per-run trace path from a shared --trace-out base: run-id
 * slashes become dashes and the id is inserted before the extension
 * ("out.json" + "mcf/vsv-fsm" -> "out.mcf-vsv-fsm.json"), so parallel
 * sweep runs never clobber each other's trace files.
 */
std::string traceOutPathForRun(const std::string &base,
                               const std::string &run_id);

/** Derive degradation/savings from two already-run results. */
VsvComparison makeComparison(const SimulationResult &base,
                             const SimulationResult &vsv);

/** The paper's default FSM configuration (down 3/10, up 3/10). */
VsvConfig fsmVsvConfig();

/** The paper's "without FSMs" configuration (down 0, up First-R). */
VsvConfig noFsmVsvConfig();

/** Simple fixed-width text table. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);
    void print(std::ostream &os) const;

    /** Format helper: fixed-precision double. */
    static std::string num(double value, int precision = 2);

  private:
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

} // namespace vsv

#endif // VSV_HARNESS_EXPERIMENT_HH
