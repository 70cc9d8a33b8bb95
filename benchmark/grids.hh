/**
 * @file
 * The sweep grids of the shipped binaries vsvbench drives, rebuilt
 * in-process. Each grid function mirrors the job loop in
 * bench/<tool>.cc; vsvbench checks every rebuilt run id and
 * configFingerprint against the binary's own manifest, so a grid
 * function that drifts from its binary fails the benchmark instead of
 * timing the wrong grid.
 */

#ifndef VSVBENCH_GRIDS_HH
#define VSVBENCH_GRIDS_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace vsvbench
{

/**
 * Tools of a grid, in run order: "paper" is the five paper artifacts
 * in EXPERIMENTS.md order, "ablations" the ablation binaries whose
 * grids lockstep batches. Throws std::invalid_argument otherwise.
 */
const std::vector<std::string> &gridTools(const std::string &grid);

/**
 * Window flags for `tool` at a scale. "full" keeps the binaries' own
 * windows (400k measured, 300k warmup, the profiles' 2-12M Time-Keeping
 * warmups); "standard" is one eighth of them so a repetition fits the
 * benchmark's time box; "smoke" is a few thousand instructions. Throws
 * std::invalid_argument for other scale names.
 */
std::vector<std::string> scaleFlags(const std::string &tool,
                                    const std::string &scale);

/**
 * Parse `flags` exactly as `tool` does and return its grid, in
 * submission order. `args` receives the parsed arguments.
 */
std::vector<vsv::SweepJob> rebuildGrid(const std::string &tool,
                                       const std::vector<std::string> &flags,
                                       vsv::ExperimentArgs &args);

} // namespace vsvbench

#endif // VSVBENCH_GRIDS_HH
