#include "measure.hh"

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <csignal>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "store/store.hh"

namespace vsvbench
{

using vsv::minijson::Value;

double
Summary::relIqr() const
{
    return median != 0.0 ? (q3 - q1) / median : 0.0;
}

Summary
summarize(std::vector<double> values)
{
    Summary s;
    s.n = values.size();
    if (values.empty())
        return s;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    s.min = values.front();
    s.max = values.back();
    s.median = n % 2 == 1 ? values[n / 2]
                          : 0.5 * (values[n / 2 - 1] + values[n / 2]);
    if (n == 1) {
        s.q1 = s.q3 = values[0];
        return s;
    }
    // statistics.quantiles(method="exclusive"): cut point i of 4 sits
    // at rank i*(n+1)/4, interpolated in exact integer steps.
    const auto cut = [&](std::size_t i) {
        const std::size_t m = n + 1;
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        const double delta = static_cast<double>(i * m) -
                             static_cast<double>(j * 4);
        return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    };
    s.q1 = cut(1);
    s.q3 = cut(3);
    return s;
}

std::string
hexDigest(const std::string &text)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      vsv::store::detail::fnv1a64(text)));
    return buf;
}

std::string
runDigest(const Value &result, const Value &stats)
{
    Value stripped = result;
    std::get<vsv::minijson::Object>(stripped.v).erase("throughput");
    std::ostringstream os;
    vsv::minijson::write(os, stripped);
    os << '\n';
    vsv::minijson::write(os, stats);
    return hexDigest(os.str());
}

std::string
outcomeDigest(const vsv::SweepOutcome &outcome)
{
    std::ostringstream result;
    vsv::writeSimulationResultJson(result, outcome.result);
    return runDigest(vsv::minijson::parse(result.str()),
                     vsv::minijson::parse(outcome.statsJson));
}

namespace
{

/** The child being waited for, so a stop signal can take it down too. */
volatile sig_atomic_t runningChild = 0;

extern "C" void
stopRunningChild(int sig)
{
    const pid_t child = runningChild;
    if (child > 0) {
        ::kill(child, SIGKILL);
        ::waitpid(child, nullptr, 0);
    }
    ::_exit(128 + sig);
}

const int kStopSignals[] = {SIGTERM, SIGINT, SIGHUP};

} // namespace

ChildResult
runChild(const std::string &exe, const std::vector<std::string> &args,
         const std::string &logPath)
{
    static const bool handlersInstalled = [] {
        struct sigaction action{};
        action.sa_handler = stopRunningChild;
        sigemptyset(&action.sa_mask);
        for (const int sig : kStopSignals)
            ::sigaction(sig, &action, nullptr);
        return true;
    }();
    (void)handlersInstalled;

    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(exe.c_str()));
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);

    // Hold stop signals until the child's pid is recorded, so none can
    // leave it running behind us.
    sigset_t stop, previous;
    sigemptyset(&stop);
    for (const int sig : kStopSignals)
        sigaddset(&stop, sig);
    ::sigprocmask(SIG_BLOCK, &stop, &previous);

    ChildResult out;
    const double start = now();
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::sigprocmask(SIG_SETMASK, &previous, nullptr);
        throw std::runtime_error("fork failed for " + exe);
    }
    if (pid == 0) {
        ::sigprocmask(SIG_SETMASK, &previous, nullptr);
        const int fd =
            ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
            ::close(fd);
        }
        ::execv(exe.c_str(), argv.data());
        ::_exit(127);
    }
    runningChild = pid;
    ::sigprocmask(SIG_SETMASK, &previous, nullptr);

    int status = 0;
    struct rusage usage{};
    while (::wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR) {
            runningChild = 0;
            throw std::runtime_error("wait4 failed for " + exe);
        }
    }
    runningChild = 0;
    out.wallSeconds = now() - start;
    out.maxRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    out.exitedOk = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return out;
}

namespace
{

std::uint64_t
count(const Value &block, const char *key)
{
    return block.has(key) ? static_cast<std::uint64_t>(block.at(key).num())
                          : 0;
}

} // namespace

Manifest
readManifest(const std::string &path)
{
    const Value doc = vsv::minijson::parse(readFile(path));
    const Value &m = doc.at("manifest");
    Manifest out;
    out.wallSeconds = m.at("wallSeconds").num();

    const Value &snap = m.at("snapshotCache");
    out.snapshotCache.hits = count(snap, "hits");
    out.snapshotCache.misses = count(snap, "misses");
    out.snapshotCache.diskHits = count(snap, "diskHits");
    out.snapshotCache.failures = count(snap, "failures");

    const Value &lock = m.at("lockstep");
    out.lockstep.batches = count(lock, "batches");
    out.lockstep.batchedRuns = count(lock, "batchedRuns");
    out.lockstep.serialRuns = count(lock, "serialRuns");
    out.lockstep.largestBatch = count(lock, "largestBatch");
    out.lockstep.fallbacks = count(lock, "fallbacks");

    if (m.has("store")) {
        const Value &store = m.at("store");
        out.store.enabled = true;
        out.store.hits = count(store, "hits");
        out.store.misses = count(store, "misses");
        out.store.inserts = count(store, "inserts");
        out.store.corrupt = count(store, "corrupt");
        out.store.writeFailures = count(store, "writeFailures");
    }

    for (const Value &r : doc.at("runs").array()) {
        ManifestRun run;
        run.id = r.at("id").str();
        run.fingerprint = r.at("fingerprint").str();
        run.status = r.at("status").str();
        if (run.status == "ok" && r.at("result").isObject()) {
            run.digest = runDigest(r.at("result"), r.at("stats"));
            run.result = vsv::parseSimulationResultJson(r.at("result"));
        }
        out.runs.push_back(std::move(run));
    }
    return out;
}

double
dirMegabytes(const std::string &dir)
{
    std::error_code ec;
    if (!std::filesystem::exists(dir, ec))
        return 0.0;
    std::uintmax_t bytes = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec))
            bytes += entry.file_size(ec);
    }
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

} // namespace vsvbench
