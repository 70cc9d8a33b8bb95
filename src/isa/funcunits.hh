/**
 * @file
 * Functional-unit pool descriptors (latency, pipelining, pool sizes).
 *
 * Pool sizes default to the paper's Table 1 configuration: 8 integer
 * ALUs, 2 integer mul/div units, 4 FP ALUs, 4 FP mul/div units.
 * Latencies follow sim-outorder's defaults for the same units.
 */

#ifndef VSV_ISA_FUNCUNITS_HH
#define VSV_ISA_FUNCUNITS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "isa/microop.hh"

namespace vsv
{

/** Functional-unit pools (a pool serves one or more op classes). */
enum class FuPool : std::uint8_t
{
    IntAlu,     ///< integer ALUs (int ops, branches, agen)
    IntMulDiv,  ///< integer multiply/divide
    FpAlu,      ///< FP add/compare
    FpMulDiv,   ///< FP multiply/divide
    NumPools
};

inline constexpr std::size_t numFuPools =
    static_cast<std::size_t>(FuPool::NumPools);

/** Execution characteristics of one op class. */
struct OpTiming
{
    FuPool pool;          ///< which pool executes it
    std::uint32_t latency;  ///< execute latency in pipeline cycles
    bool pipelined;       ///< can the unit accept a new op next cycle?

    /** Cycles one op keeps its unit from accepting another. */
    constexpr std::uint32_t
    busyCycles() const
    {
        return pipelined ? 1 : latency;
    }
};

namespace isa_detail
{

/** Indexed by OpClass. */
inline constexpr std::array<OpTiming,
                            static_cast<std::size_t>(OpClass::NumOpClasses)>
    opTimingTable{{
        {FuPool::IntAlu, 1, true},      // IntAlu
        {FuPool::IntMulDiv, 3, true},   // IntMult
        {FuPool::IntMulDiv, 20, false}, // IntDiv
        {FuPool::FpAlu, 2, true},       // FpAlu
        {FuPool::FpMulDiv, 4, true},    // FpMult
        {FuPool::FpMulDiv, 12, false},  // FpDiv
        // Memory ops and branches use an integer ALU for
        // address/target generation; cache latency is added by the
        // LSQ, not here.
        {FuPool::IntAlu, 1, true},      // Load
        {FuPool::IntAlu, 1, true},      // Store
        {FuPool::IntAlu, 1, true},      // Branch
        {FuPool::IntAlu, 1, true},      // Prefetch
    }};

} // namespace isa_detail

/** Timing for an op class (Load/Store timing covers agen only). */
inline OpTiming
opTiming(OpClass cls)
{
    const auto idx = static_cast<std::size_t>(cls);
    if (idx >= isa_detail::opTimingTable.size())
        panic("opTiming: bad op class");
    return isa_detail::opTimingTable[idx];
}

/** Default pool sizes per Table 1. */
struct FuPoolSizes
{
    std::uint32_t count[numFuPools] = {8, 2, 4, 4};

    std::uint32_t
    size(FuPool pool) const
    {
        return count[static_cast<std::size_t>(pool)];
    }

    bool operator==(const FuPoolSizes &) const = default;
};

/**
 * One core's functional units, pool by pool, each with the pipeline
 * cycle it is next free. acquire() takes the first free unit of a
 * pool, as a scan from the pool's first unit finds it. The scan
 * resumes where the cycle's previous acquire in that pool stopped:
 * every unit before that point was found busy or was just taken, and
 * stays so for the rest of the cycle, so the unit it finds is the
 * same.
 */
class FuPoolSet
{
  public:
    explicit FuPoolSet(const FuPoolSizes &sizes)
    {
        for (std::size_t pool = 0; pool < numFuPools; ++pool)
            first[pool + 1] = first[pool] + sizes.count[pool];
        freeAt.assign(first[numFuPools], 0);
    }

    /** Start pipeline cycle `now`: every pool's scan restarts at its
     *  first unit. */
    void
    beginCycle(Cycle now)
    {
        cycle = now;
        for (std::size_t pool = 0; pool < numFuPools; ++pool)
            cursor[pool] = first[pool];
    }

    /** Take the first free unit of `pool` for `busy_cycles` (>= 1)
     *  cycles from this one; false when every unit is busy. */
    bool
    acquire(std::size_t pool, std::uint32_t busy_cycles)
    {
        std::uint32_t &u = cursor[pool];
        const std::uint32_t end = first[pool + 1];
        for (; u < end; ++u) {
            if (freeAt[u] <= cycle) {
                freeAt[u] = cycle + busy_cycles;
                ++u;
                return true;
            }
        }
        return false;
    }

    /** Each unit's next free cycle, pool by pool. */
    const std::vector<Cycle> &freeCycles() const { return freeAt; }

  private:
    /** Pool p's units are [first[p], first[p + 1]). */
    std::array<std::uint32_t, numFuPools + 1> first{};
    std::array<std::uint32_t, numFuPools> cursor{};
    std::vector<Cycle> freeAt;
    Cycle cycle = 0;
};

} // namespace vsv

#endif // VSV_ISA_FUNCUNITS_HH
