/**
 * @file
 * Measurement building blocks shared by the timed and traced halves
 * of vsvbench: order statistics, output digests, child processes and
 * the bits of a sweep manifest the benchmark checks.
 */

#ifndef VSVBENCH_MEASURE_HH
#define VSVBENCH_MEASURE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/minijson.hh"
#include "harness/sweep.hh"

namespace vsvbench
{

/** Seconds on the steady clock since an arbitrary epoch. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Median, quartiles and range of a sample. The quartiles follow
 * Python's statistics.quantiles(values, n=4) (the "exclusive"
 * method), so a spread printed here is the one a script recomputes.
 */
struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::size_t n = 0;

    /** (q3 - q1) / median; 0 for an empty or zero-median sample. */
    double relIqr() const;
};

Summary summarize(std::vector<double> values);

/** FNV-1a 64 of `text` as 16 lowercase hex digits. */
std::string hexDigest(const std::string &text);

/**
 * Digest of one run's outputs: the manifest `result` object without
 * its host-dependent `throughput` block, plus the `stats` document,
 * both in minijson's canonical form. Equal digests mean the run
 * produced the same simulated numbers.
 */
std::string runDigest(const vsv::minijson::Value &result,
                      const vsv::minijson::Value &stats);

/** runDigest of an in-process outcome (serialized the way a manifest
 *  would write it). */
std::string outcomeDigest(const vsv::SweepOutcome &outcome);

/** How one child process ended. */
struct ChildResult
{
    double wallSeconds = 0.0;  ///< fork to reap, on the steady clock
    double maxRssMb = 0.0;     ///< ru_maxrss from wait4
    bool exitedOk = false;     ///< exited with status 0
};

/**
 * Run `exe args...` to completion with stdout and stderr sent to
 * `logPath`; blocks until the child has been reaped. A SIGTERM, SIGINT
 * or SIGHUP to this process kills and reaps the running child, then
 * exits 128 + the signal.
 */
ChildResult runChild(const std::string &exe,
                     const std::vector<std::string> &args,
                     const std::string &logPath);

/** One run as a sweep manifest records it. */
struct ManifestRun
{
    std::string id;
    std::string fingerprint;
    std::string status;
    std::string digest;  ///< empty unless status is ok
    vsv::SimulationResult result;
};

/** The parts of a `--json` sweep document the benchmark checks. */
struct Manifest
{
    double wallSeconds = 0.0;
    vsv::SnapshotCacheStats snapshotCache;
    vsv::LockstepStats lockstep;
    vsv::store::ResultStoreStats store;
    std::vector<ManifestRun> runs;
};

/** Parse a manifest file; throws std::runtime_error when it is
 *  missing or malformed. */
Manifest readManifest(const std::string &path);

/** Bytes of regular files under `dir`, in MB (0 when absent). */
double dirMegabytes(const std::string &dir);

/** Whole file contents; throws std::runtime_error when unreadable. */
std::string readFile(const std::string &path);

} // namespace vsvbench

#endif // VSVBENCH_MEASURE_HH
