#include "coordinator.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iostream>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/net.hh"
#include "campaign/worker.hh"
#include "common/logging.hh"

namespace vsv
{
namespace campaign
{

namespace
{

std::chrono::steady_clock::time_point
now()
{
    return std::chrono::steady_clock::now();
}

} // namespace

Coordinator::Coordinator(const ExperimentArgs &args,
                         const std::string &tool,
                         const std::vector<SweepJob> &prepared)
    : args(args), tool(tool), prepared(prepared),
      gridFingerprint(sweepGridFingerprint(prepared))
{
    stats_.enabled = true;
    stats_.localWorkers = args.campaignWorkers;
    if (!args.campaignListen.empty()) {
        const net::HostPort addr =
            net::parseHostPort(args.campaignListen, "0.0.0.0");
        listenFd = net::listenOn(addr);
        listenPort_ = net::boundPort(listenFd);
        inform("campaign coordinator listening on " + addr.host + ":" +
               std::to_string(listenPort_));
    }
    spawnLocalWorkers();
    if (args.storeEnabled()) {
        resultStore_ =
            std::make_unique<store::ResultStore>(args.storeDir);
    }
}

Coordinator::~Coordinator()
{
    for (Worker &worker : workers) {
        if (worker.fd >= 0)
            ::close(worker.fd);
        worker.fd = -1;
    }
    if (listenFd >= 0)
        ::close(listenFd);
    for (const pid_t pid : pids)
        ::kill(pid, SIGKILL);
    reapChildren(/*block=*/true);
}

void
Coordinator::spawnLocalWorkers()
{
    for (unsigned i = 0; i < args.campaignWorkers; ++i) {
        int pair[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
            fatal(std::string("socketpair failed: ") +
                  std::strerror(errno));
        }
        // The child shares this process's buffered streams; flush so
        // nothing the parent printed is replayed by the fork.
        std::cout.flush();
        std::cerr.flush();
        std::fflush(nullptr);
        const pid_t pid = ::fork();
        if (pid < 0)
            fatal(std::string("fork failed: ") + std::strerror(errno));
        if (pid == 0) {
            // Child: drop every coordinator-side fd, serve, and leave
            // without running parent-owned destructors.
            ::close(pair[0]);
            if (listenFd >= 0)
                ::close(listenFd);
            for (const Worker &other : workers) {
                if (other.fd >= 0)
                    ::close(other.fd);
            }
            const int rc =
                serveCoordinator(pair[1], args, tool, prepared);
            ::_exit(rc);
        }
        ::close(pair[1]);
        pids.push_back(pid);
        Worker worker;
        worker.fd = pair[0];
        worker.pid = pid;
        worker.lastHeard = now();
        worker.label = "local worker pid " + std::to_string(pid);
        workers.push_back(std::move(worker));
    }
}

void
Coordinator::acceptWorker()
{
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) {
        if (errno != EINTR && errno != EAGAIN)
            warn(std::string("accept failed: ") + std::strerror(errno));
        return;
    }
    Worker worker;
    worker.fd = fd;
    worker.lastHeard = now();
    worker.label = "tcp worker fd " + std::to_string(fd);
    workers.push_back(std::move(worker));
}

void
Coordinator::handleHello(Worker &worker, const HelloMessage &hello)
{
    std::string reject;
    if (hello.protocol != kProtocolVersion) {
        reject = "protocol " + std::to_string(hello.protocol) +
                 " != " + std::to_string(kProtocolVersion);
    } else if (hello.role != "worker") {
        reject = "role '" + hello.role + "' is not 'worker'";
    } else if (hello.tool != tool) {
        reject = "tool '" + hello.tool + "' != '" + tool + "'";
    } else if (hello.grid != gridFingerprint) {
        reject = "grid fingerprint " + hello.grid + " != " +
                 gridFingerprint + " (command lines differ?)";
    }
    if (!reject.empty()) {
        ++stats_.protocolErrors;
        warn("campaign coordinator refusing " + worker.label + ": " +
             reject);
        writeFrame(worker.fd, encode(ByeMessage{reject}));
        closeWorker(worker);
        return;
    }
    HelloMessage ack;
    ack.role = "coordinator";
    ack.tool = tool;
    ack.gitDescribe = std::string(buildGitDescribe());
    ack.grid = gridFingerprint;
    ack.runs = prepared.size();
    if (!writeFrame(worker.fd, encode(ack))) {
        failWorker(worker, "hung up during handshake");
        return;
    }
    worker.active = true;
    ++stats_.workersJoined;
    inform("campaign coordinator accepted " + worker.label);
    refill(worker);
}

void
Coordinator::recordOutcome(std::uint64_t index,
                           const SweepOutcome &outcome, bool fromStore)
{
    // At-least-once dispatch: a run re-queued after a worker death
    // may in principle complete twice. The first recorded outcome
    // wins so the merged manifest is stable.
    if (!recorded.emplace(index, outcome).second)
        return;
    if (resultStore_ && !fromStore &&
        outcome.status == SweepStatus::Ok)
        resultStore_->insert(storeEntryFromOutcome(outcome));
    if (outcomeHook)
        outcomeHook(index, outcome);
}

void
Coordinator::failWorker(Worker &worker, const std::string &why)
{
    if (worker.fd < 0)
        return;
    warn("campaign coordinator lost " + worker.label + ": " + why +
         " (" + std::to_string(worker.inFlight.size()) +
         " runs in flight)");
    if (worker.active)
        ++stats_.deaths;
    // Re-queue at the front, ascending, so the replacement worker
    // still sees contiguous grid indices (lockstep batches keep
    // forming). A run whose workers keep dying is poison: after
    // --retries + 1 fatal dispatches it is recorded as an Error
    // outcome instead of cycling forever.
    for (auto it = worker.inFlight.rbegin();
         it != worker.inFlight.rend(); ++it) {
        const std::uint64_t index = *it;
        if (recorded.count(index))
            continue;
        const unsigned fatalCount = ++fatalDispatches[index];
        if (fatalCount > args.retries) {
            SweepOutcome abandoned;
            abandoned.id = prepared[index].id;
            abandoned.fingerprint =
                configFingerprint(prepared[index].options);
            abandoned.status = SweepStatus::Error;
            abandoned.error =
                "campaign workers died " + std::to_string(fatalCount) +
                " time(s) while running this job";
            abandoned.attempts = dispatches[index];
            ++stats_.abandonedRuns;
            recordOutcome(index, abandoned);
        } else {
            queue.push_front(index);
            ++stats_.requeuedRuns;
        }
    }
    worker.inFlight.clear();
    if (worker.pid > 0)
        ::kill(worker.pid, SIGKILL);
    closeWorker(worker);
}

void
Coordinator::refill(Worker &worker)
{
    if (worker.fd < 0 || !worker.active || queue.empty())
        return;
    // Low-water top-up. The original refill only issued a lease once
    // a worker's in-flight set was completely empty, so with chunk C
    // every worker idled between finishing run C and the OUTCOME for
    // run C reaching us - and, worse, a worker finishing its chunk
    // while we were busy failing another worker could sit idle a full
    // poll round. Topping back up to a full chunk once in-flight
    // drops below half keeps the pipeline primed; chunk=1 degenerates
    // to the old lease-when-empty behaviour.
    const std::size_t lowWater =
        std::max<std::size_t>(1, args.campaignChunk / 2);
    if (worker.inFlight.size() >= lowWater)
        return;
    AssignMessage assign;
    // inFlight tracks the lease as it is built, so it alone measures
    // fullness here.
    while (!queue.empty() &&
           worker.inFlight.size() < args.campaignChunk) {
        const std::uint64_t index = queue.front();
        queue.pop_front();
        AssignedRun run;
        run.index = index;
        run.id = prepared[index].id;
        run.fingerprint = configFingerprint(prepared[index].options);
        assign.runs.push_back(std::move(run));
        worker.inFlight.insert(index);
        ++dispatches[index];
    }
    if (assign.runs.empty())
        return;
    if (!writeFrame(worker.fd, encode(assign)))
        failWorker(worker, "hung up during assign");
}

void
Coordinator::closeWorker(Worker &worker)
{
    if (worker.fd >= 0)
        ::close(worker.fd);
    worker.fd = -1;
    worker.active = false;
}

void
Coordinator::reapChildren(bool block)
{
    auto it = pids.begin();
    while (it != pids.end()) {
        int status = 0;
        const pid_t rc = ::waitpid(*it, &status, block ? 0 : WNOHANG);
        if (rc == *it || (rc < 0 && errno == ECHILD))
            it = pids.erase(it);
        else
            ++it;
    }
}

bool
Coordinator::done() const
{
    return recorded.size() >= prepared.size();
}

bool
Coordinator::handleFrame(Worker &worker, const std::string &payload)
{
    Message msg = decodeMessage(payload);
    if (const auto *hello = std::get_if<HelloMessage>(&msg)) {
        handleHello(worker, *hello);
        return worker.fd >= 0;
    }
    if (!worker.active) {
        ++stats_.protocolErrors;
        failWorker(worker, "sent " +
                   std::string(messageTypeName(msg)) + " before HELLO");
        return false;
    }
    if (std::get_if<HeartbeatMessage>(&msg)) {
        return true; // lastHeard already refreshed by the read
    }
    if (const auto *out = std::get_if<OutcomeMessage>(&msg)) {
        const auto it = worker.inFlight.find(out->index);
        if (it == worker.inFlight.end()) {
            ++stats_.protocolErrors;
            failWorker(worker, "reported run " +
                       std::to_string(out->index) + " it never held");
            return false;
        }
        worker.inFlight.erase(it);
        recordOutcome(out->index, out->outcome);
        // refill() self-guards (low-water, empty queue, dead fd), so
        // call it for every outcome: leases top back up before the
        // worker runs dry instead of only after it has fully drained.
        refill(worker);
        return worker.fd >= 0;
    }
    if (const auto *bye = std::get_if<ByeMessage>(&msg)) {
        if (!worker.inFlight.empty()) {
            failWorker(worker, "said BYE with runs in flight (" +
                       bye->reason + ")");
        } else {
            closeWorker(worker);
        }
        return false;
    }
    ++stats_.protocolErrors;
    failWorker(worker, "sent unexpected " +
               std::string(messageTypeName(msg)));
    return false;
}

std::vector<SweepOutcome>
Coordinator::execute()
{
    for (std::size_t slot = 0; slot < prepared.size(); ++slot) {
        // Store hits are recorded as outcomes up front, before any
        // lease is issued: a run the store already holds never
        // crosses the wire at all. An entry that fails to replay
        // degrades to a normal dispatch.
        if (resultStore_) {
            if (std::optional<SweepOutcome> hit =
                    tryServeFromStore(*resultStore_, prepared[slot])) {
                recordOutcome(slot, *hit, /*fromStore=*/true);
                continue;
            }
        }
        queue.push_back(slot);
    }

    const double heartbeat = args.campaignHeartbeat;
    const auto deadAfter =
        std::chrono::duration<double>(3.0 * heartbeat);

    while (!done()) {
        reapChildren(/*block=*/false);

        std::size_t open = 0;
        for (const Worker &worker : workers)
            open += worker.fd >= 0;
        if (open == 0 && listenFd < 0) {
            fatal("campaign stalled: every worker is gone, no "
                  "listener to admit new ones, and " +
                  std::to_string(prepared.size() - recorded.size()) +
                  " runs have no outcome");
        }
        // A listener alone is only worth waiting on before anything
        // has engaged: a coordinator whose every joined (or refused)
        // worker is gone used to block in poll() forever, betting a
        // fresh worker would connect. Once a worker has joined, died
        // or been refused, no-workers-left is a structured failure,
        // not a wait state.
        const std::uint64_t engaged = stats_.workersJoined +
                                      stats_.deaths +
                                      stats_.protocolErrors;
        if (open == 0 && engaged > 0) {
            fatal("campaign stalled: every worker is gone (" +
                  std::to_string(stats_.workersJoined) + " joined, " +
                  std::to_string(stats_.deaths) + " died, " +
                  std::to_string(stats_.protocolErrors) +
                  " protocol errors) and " +
                  std::to_string(prepared.size() - recorded.size()) +
                  " runs have no outcome; aborting instead of waiting "
                  "for a new worker to connect");
        }

        std::vector<pollfd> fds;
        std::vector<Worker *> byFd;
        if (listenFd >= 0) {
            fds.push_back({listenFd, POLLIN, 0});
            byFd.push_back(nullptr);
        }
        for (Worker &worker : workers) {
            if (worker.fd < 0)
                continue;
            fds.push_back({worker.fd, POLLIN, 0});
            byFd.push_back(&worker);
        }

        const int timeoutMs =
            heartbeat > 0.0
                ? std::max(50, static_cast<int>(heartbeat * 500))
                : 1000;
        const int ready = ::poll(fds.data(), fds.size(), timeoutMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            fatal(std::string("poll failed: ") + std::strerror(errno));
        }

        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            if (!byFd[i]) {
                acceptWorker();
                continue;
            }
            Worker &worker = *byFd[i];
            if (worker.fd < 0)
                continue; // failed while handling an earlier fd
            char buf[65536];
            const ssize_t n = ::read(worker.fd, buf, sizeof(buf));
            if (n < 0) {
                if (errno != EINTR)
                    failWorker(worker, std::strerror(errno));
                continue;
            }
            if (n == 0) {
                failWorker(worker, "connection closed");
                continue;
            }
            worker.lastHeard = now();
            worker.reader.feed(buf, static_cast<std::size_t>(n));
            try {
                std::optional<std::string> payload;
                while (worker.fd >= 0 &&
                       (payload = worker.reader.next())) {
                    if (!handleFrame(worker, *payload))
                        break;
                }
            } catch (const ProtocolError &e) {
                ++stats_.protocolErrors;
                failWorker(worker, e.what());
            }
        }

        if (heartbeat > 0.0) {
            const auto t = now();
            for (Worker &worker : workers) {
                if (worker.fd >= 0 && worker.active &&
                    t - worker.lastHeard > deadAfter) {
                    failWorker(worker, "missed 3 heartbeats");
                }
            }
        }

        // Top up any worker that drained its lease while we were
        // busy elsewhere (e.g. runs re-queued by a death above).
        for (Worker &worker : workers)
            refill(worker);
    }

    // Everyone gets a farewell; give them a moment to acknowledge so
    // local children exit before we start tearing down.
    for (Worker &worker : workers) {
        if (worker.fd >= 0 && worker.active)
            writeFrame(worker.fd, encode(ByeMessage{"complete"}));
    }
    const auto farewellDeadline = now() + std::chrono::seconds(5);
    for (;;) {
        std::vector<pollfd> fds;
        std::vector<Worker *> byFd;
        for (Worker &worker : workers) {
            if (worker.fd < 0)
                continue;
            fds.push_back({worker.fd, POLLIN, 0});
            byFd.push_back(&worker);
        }
        if (fds.empty() || now() >= farewellDeadline)
            break;
        const int ready = ::poll(fds.data(), fds.size(), 100);
        if (ready < 0 && errno != EINTR)
            break;
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Worker &worker = *byFd[i];
            char buf[4096];
            const ssize_t n = ::read(worker.fd, buf, sizeof(buf));
            if (n <= 0) {
                closeWorker(worker);
                continue;
            }
            // Anything still arriving now is the worker's BYE (or a
            // late heartbeat); either way the conversation is over.
            worker.reader.feed(buf, static_cast<std::size_t>(n));
            try {
                while (auto payload = worker.reader.next()) {
                    const Message msg = decodeMessage(*payload);
                    if (std::get_if<ByeMessage>(&msg)) {
                        closeWorker(worker);
                        break;
                    }
                }
            } catch (const ProtocolError &) {
                closeWorker(worker);
            }
        }
    }
    for (Worker &worker : workers)
        closeWorker(worker);
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
    }
    reapChildren(/*block=*/true);

    std::vector<SweepOutcome> out;
    out.reserve(prepared.size());
    for (std::size_t slot = 0; slot < prepared.size(); ++slot) {
        const auto it = recorded.find(slot);
        VSV_ASSERT(it != recorded.end(),
                   "campaign finished without an outcome for slot " +
                       std::to_string(slot));
        out.push_back(it->second);
    }
    return out;
}

} // namespace campaign
} // namespace vsv
