/**
 * @file
 * Campaign coordinator: shards a sweep grid across worker processes
 * (local forks over socketpairs, remote over TCP) and merges their
 * streamed outcomes back into submission order. Single-threaded
 * poll() event loop; the protocol and the failure/re-queue state
 * machine are specified in CAMPAIGNS.md.
 *
 * Dispatch is at-least-once: a worker death re-queues its in-flight
 * runs for the next free worker, so a run may execute more than once
 * but is recorded exactly once (first outcome wins). Runs whose
 * workers keep dying are poison: after `--retries` + 1 fatal
 * dispatches a run is recorded as an Error outcome instead of
 * looping forever.
 */

#ifndef VSV_CAMPAIGN_COORDINATOR_HH
#define VSV_CAMPAIGN_COORDINATOR_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <sys/types.h>

#include "campaign/protocol.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "store/store.hh"

namespace vsv
{
namespace campaign
{

/**
 * One campaign. Construction forks `--campaign-workers` local workers
 * (each running serveCoordinator over a socketpair) and binds the
 * `--campaign-listen` TCP listener; execute() runs the event loop to
 * completion. Fork happens in the constructor, while the process is
 * still single-threaded - do not construct one after spawning
 * threads.
 */
class Coordinator
{
  public:
    /**
     * @param args the parsed command line (chunk/heartbeat/listen/
     *             workers/retries); the same args the workers parse
     * @param tool the producing binary's name (HELLO cross-check)
     * @param prepared the full grid, after prepareSweepJobs()
     */
    Coordinator(const ExperimentArgs &args, const std::string &tool,
                const std::vector<SweepJob> &prepared);
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /**
     * Serve what the result store holds, dispatch the rest of the grid
     * and block until every run has an outcome.
     * @return one outcome per grid job, in submission order
     */
    std::vector<SweepOutcome> execute();

    /** Campaign counters for the manifest (valid after execute()). */
    const CampaignStats &stats() const { return stats_; }

    /** The --store-dir result store, or nullptr when no store is in
     *  play (counters for the manifest's `store` block live here). */
    const store::ResultStore *resultStore() const
    {
        return resultStore_.get();
    }

    /** Bound TCP port (resolves --campaign-listen=...:0); 0 = none. */
    std::uint16_t listenPort() const { return listenPort_; }

    /** PIDs of the forked local workers, in spawn order. */
    const std::vector<pid_t> &localWorkerPids() const { return pids; }

    /**
     * Test hook: called after each outcome is recorded (grid index,
     * outcome), from the event loop. Integration tests use it to
     * SIGKILL a worker mid-campaign at a deterministic point.
     */
    using OutcomeHook =
        std::function<void(std::uint64_t, const SweepOutcome &)>;
    void setOutcomeHook(OutcomeHook hook) { outcomeHook = std::move(hook); }

  private:
    struct Worker
    {
        int fd = -1;
        pid_t pid = -1;           ///< -1 for TCP workers
        bool active = false;      ///< HELLO accepted
        FrameReader reader;
        std::set<std::uint64_t> inFlight; ///< leased, not yet recorded
        std::chrono::steady_clock::time_point lastHeard;
        std::string label;        ///< for log lines
    };

    void spawnLocalWorkers();
    void acceptWorker();
    bool handleFrame(Worker &worker, const std::string &payload);
    void handleHello(Worker &worker, const HelloMessage &hello);
    void recordOutcome(std::uint64_t index, const SweepOutcome &outcome,
                       bool fromStore = false);
    void failWorker(Worker &worker, const std::string &why);
    void refill(Worker &worker);
    void closeWorker(Worker &worker);
    void reapChildren(bool block);
    bool done() const;

    const ExperimentArgs &args;
    std::string tool;
    const std::vector<SweepJob> &prepared;
    std::string gridFingerprint;

    int listenFd = -1;
    std::uint16_t listenPort_ = 0;
    std::vector<pid_t> pids;
    std::deque<Worker> workers;

    std::deque<std::uint64_t> queue;      ///< grid indices to dispatch
    std::map<std::uint64_t, SweepOutcome> recorded;
    /** ASSIGNs issued per grid index (at-least-once accounting). */
    std::map<std::uint64_t, unsigned> dispatches;
    /** Fatal dispatches (worker died holding the run) per grid index. */
    std::map<std::uint64_t, unsigned> fatalDispatches;

    /** --store-dir: hits are recorded before any lease is issued, so
     *  a stored run never crosses the wire; fresh Ok outcomes are
     *  inserted as they arrive. */
    std::unique_ptr<store::ResultStore> resultStore_;

    CampaignStats stats_;
    OutcomeHook outcomeHook;
};

} // namespace campaign
} // namespace vsv

#endif // VSV_CAMPAIGN_COORDINATOR_HH
