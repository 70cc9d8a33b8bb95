/**
 * @file
 * The three run keys: FNV-1a hex hashes of option text, all walking
 * one field table (fingerprint.cc) that lists every option field once.
 */

#ifndef VSV_HARNESS_FINGERPRINT_HH
#define VSV_HARNESS_FINGERPRINT_HH

#include <string>

#include "harness/simulator.hh"

namespace vsv
{

/** Keys the result store and manifest runs: every field that can
 *  change a result. Fast-forward and tracing provably change none, so
 *  a re-sweep may vary them and still replay stored runs. */
std::string configFingerprint(const SimulationOptions &options);

/** Keys the WarmupSnapshotCache and snapshot files: the fields that
 *  shape post-warmup state, so every measurement variant of a
 *  benchmark (VSV policy, measure window, core, DRAM latency) shares
 *  one warmup. */
std::string warmupFingerprint(const SimulationOptions &options);

/** Groups the runs lockstep may batch: configFingerprint's fields
 *  minus the energy-accounting ones (power model, VSV rail voltages
 *  and slew), plus the ramp length those voltages round to. A VSV-off
 *  run keys every VSV knob and the L2 miss-detect latency as their
 *  defaults, since none of them acts while VSV is off. Equal keys mean
 *  identical micro-op streams and front-end event sequences. */
std::string structuralFingerprint(const SimulationOptions &options);

} // namespace vsv

#endif // VSV_HARNESS_FINGERPRINT_HH
