/**
 * @file
 * Trace-level micro-op model.
 *
 * The simulator is trace-driven: the workload generator emits a stream
 * of MicroOps carrying everything timing needs - operation class,
 * producer distances (register dataflow), program counter, memory
 * address and branch outcome. There is no architectural register file
 * to rename; a producer *distance* d means "this op reads the value
 * produced by the op d positions earlier in program order", which the
 * core resolves to a sequence number at dispatch. This is the classic
 * trace-driven formulation (dependences are exact, values are not
 * simulated) and is sufficient for VSV, whose behaviour depends only
 * on issue timing around L2 misses.
 */

#ifndef VSV_ISA_MICROOP_HH
#define VSV_ISA_MICROOP_HH

#include <cstdint>
#include <string_view>

#include "common/types.hh"

namespace vsv
{

/** Operation classes; each maps onto one functional-unit pool. */
enum class OpClass : std::uint8_t
{
    IntAlu,     ///< 1-cycle integer op (also branch/agen compute)
    IntMult,    ///< pipelined integer multiply
    IntDiv,     ///< unpipelined integer divide
    FpAlu,      ///< pipelined FP add/sub/cmp
    FpMult,     ///< pipelined FP multiply
    FpDiv,      ///< unpipelined FP divide
    Load,       ///< memory read (agen + D-cache access)
    Store,      ///< memory write (agen; data written at commit)
    Branch,     ///< conditional or unconditional control transfer
    Prefetch,   ///< non-binding software prefetch (no destination)
    NumOpClasses
};

/** Printable name of an op class. */
std::string_view opClassName(OpClass cls);

/** True for classes that access the data memory hierarchy. */
constexpr bool
isMemOp(OpClass cls)
{
    return cls == OpClass::Load || cls == OpClass::Store ||
           cls == OpClass::Prefetch;
}

/** Control-transfer subtypes (Branch ops only). */
enum class BranchKind : std::uint8_t
{
    NotBranch,  ///< not a control transfer
    Cond,       ///< conditional direct branch
    Uncond,     ///< unconditional direct jump
    Call,       ///< subroutine call (pushes RAS)
    Return      ///< subroutine return (pops RAS)
};

/** One element of the dynamic instruction trace (40 bytes: the
 *  one-byte fields lead, so they pack into the padding). */
struct MicroOp
{
    /** Operation class. */
    OpClass cls = OpClass::IntAlu;

    /** Actual branch outcome (Branch ops only). */
    bool taken = false;

    /** Control-transfer subtype (Branch ops only). */
    BranchKind brKind = BranchKind::NotBranch;

    /**
     * Producer distances: this op's sources are the results of the ops
     * depDist1 / depDist2 positions earlier in the dynamic stream
     * (0 = no such source). Exact dependences, no false sharing.
     */
    std::uint32_t depDist1 = 0;
    std::uint32_t depDist2 = 0;

    /** Program counter (drives L1I and the branch predictor). */
    Addr pc = 0;

    /** Effective address for memory ops (block-aligned by the cache). */
    Addr addr = 0;

    /** Branch target (Branch ops only). */
    Addr target = 0;
};

} // namespace vsv

#endif // VSV_ISA_MICROOP_HH
