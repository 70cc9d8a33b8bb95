/**
 * @file
 * The set of power-modeled processor structures and their Wattch-style
 * parameters.
 *
 * Every structure belongs to one of two voltage domains:
 *
 *  - Scaled: the VSV pipeline domain (Figure 1, white). Its supply
 *    follows the VSV controller between VDDH and VDDL.
 *  - Fixed: large RAM structures and the PLL (Figure 1, gray): the
 *    register file, L1 I/D caches, L2 cache, the branch predictor's
 *    RAM tables and the prefetch engine's tables. These stay at VDDH
 *    because one VDD ramp would charge every cell and could not be
 *    amortized by the few accesses within an L2-miss window
 *    (paper eq. 3-5).
 *
 * Per-access energies are effective-capacitance models (E = C * V^2)
 * expressed in picojoules at VDDH; the PowerModel rescales by
 * (V/VDDH)^2 for the scaled domain. Absolute values are plausible
 * 0.18 um numbers tuned so the *breakdown* of baseline power matches
 * Wattch's published Alpha-like distribution (clock ~30%, caches
 * ~15%, window ~15%, regfile ~8%, FUs ~12%, ...); the paper's results
 * are relative power savings, which depend on the breakdown and not
 * on absolute watts.
 */

#ifndef VSV_POWER_STRUCTURES_HH
#define VSV_POWER_STRUCTURES_HH

#include <array>
#include <cstdint>
#include <string_view>

#include "common/logging.hh"

namespace vsv
{

/** Voltage domain of a structure. */
enum class VoltageDomain : std::uint8_t
{
    Scaled,  ///< follows the VSV pipeline supply
    Fixed    ///< always at VDDH
};

/** Power-modeled structures. */
enum class PowerStructure : std::uint8_t
{
    // Scaled (pipeline) domain.
    FetchLogic,      ///< fetch/decode combinational logic
    RenameLogic,     ///< rename/dispatch logic
    RuuCam,          ///< RUU wakeup CAM + select logic
    RuuRam,          ///< RUU payload RAM (small, scalable per Sec 3.5)
    LsqCam,          ///< LSQ address CAM
    IntAlu,          ///< integer ALUs
    IntMulDiv,       ///< integer multiplier/divider
    FpAlu,           ///< FP adders
    FpMulDiv,        ///< FP multiplier/divider
    ResultBus,       ///< result bus drivers
    PipelineLatches, ///< pipeline stage latches
    LevelConverters, ///< regular/level-converting latch sets (Sec 3.6)
    ClockTree,       ///< global clock tree (scaled with the pipeline)

    // Fixed-VDDH domain (gray in Figure 1).
    RegFile,         ///< architectural/physical register file
    L1ICache,        ///< L1 instruction cache
    L1DCache,        ///< L1 data cache
    L2Cache,         ///< unified L2
    BranchPred,      ///< predictor + BTB RAM tables
    PrefetchBuffer,  ///< Time-Keeping 128-entry prefetch buffer
    TkTables,        ///< Time-Keeping predictor/decay tables

    NumStructures
};

inline constexpr std::size_t numPowerStructures =
    static_cast<std::size_t>(PowerStructure::NumStructures);

/** Static parameters of one structure. */
struct StructureParams
{
    std::string_view name;
    VoltageDomain domain;
    /**
     * True when deterministic clock gating can gate the structure when
     * it is unused in a cycle (DCG gates functional units, pipeline
     * latches, D-cache wordline decoders and result bus drivers).
     */
    bool dcgGateable;
    double accessPj;    ///< energy per access at VDDH (pJ)
    double maxCyclePj;  ///< energy of a fully-busy cycle at VDDH (pJ)
};

namespace structures_detail
{

using enum VoltageDomain;

// {name, domain, dcgGateable, accessPj, maxCyclePj}
//
// Scale: a fully busy cycle sums to roughly 70 nJ, i.e. ~70 W at
// 1 GHz - the magnitude of the 0.18 um Alpha-class parts Wattch
// models. Keeping the absolute scale realistic matters for exactly
// one constant: the 66 nJ dual-rail ramp energy (about one busy
// cycle's worth), whose relative cost sets how often VSV can afford
// to transition.
inline constexpr std::array<StructureParams, numPowerStructures> paramTable{{
    {"fetchLogic",      Scaled, false, 1200.0, 12000.0},
    {"renameLogic",     Scaled, false, 1200.0, 12000.0},
    {"ruuCam",          Scaled, false, 1800.0, 18000.0},
    {"ruuRam",          Scaled, false, 1200.0, 14400.0},
    {"lsqCam",          Scaled, false, 1800.0,  7200.0},
    {"intAlu",          Scaled, true,  2400.0, 19200.0},
    {"intMulDiv",       Scaled, true,  4800.0,  9600.0},
    {"fpAlu",           Scaled, true,  3600.0, 14400.0},
    {"fpMulDiv",        Scaled, true,  6000.0, 24000.0},
    {"resultBus",       Scaled, true,  1800.0, 14400.0},
    {"pipelineLatches", Scaled, true,   600.0, 26400.0},
    {"levelConverters", Scaled, true,   180.0,  3600.0},
    {"clockTree",       Scaled, false, 16200.0, 16200.0},

    {"regFile",         Fixed,  false,  900.0, 18000.0},
    {"l1i",             Fixed,  false, 4800.0,  4800.0},
    {"l1d",             Fixed,  true,  6000.0, 24000.0},
    {"l2",              Fixed,  false, 18000.0, 18000.0},
    {"branchPred",      Fixed,  false, 1800.0,  5400.0},
    {"prefetchBuffer",  Fixed,  false, 2400.0,  4800.0},
    {"tkTables",        Fixed,  false, 1800.0,  5400.0},
}};

} // namespace structures_detail

/** Parameter table lookup. */
inline const StructureParams &
structureParams(PowerStructure s)
{
    const auto idx = static_cast<std::size_t>(s);
    VSV_ASSERT(idx < numPowerStructures, "bad power structure id");
    return structures_detail::paramTable[idx];
}

/** Printable name. */
inline std::string_view
powerStructureName(PowerStructure s)
{
    return structureParams(s).name;
}

} // namespace vsv

#endif // VSV_POWER_STRUCTURES_HH
