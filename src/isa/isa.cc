#include "isa/microop.hh"

#include "common/logging.hh"

namespace vsv
{

std::string_view
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu:   return "IntAlu";
      case OpClass::IntMult:  return "IntMult";
      case OpClass::IntDiv:   return "IntDiv";
      case OpClass::FpAlu:    return "FpAlu";
      case OpClass::FpMult:   return "FpMult";
      case OpClass::FpDiv:    return "FpDiv";
      case OpClass::Load:     return "Load";
      case OpClass::Store:    return "Store";
      case OpClass::Branch:   return "Branch";
      case OpClass::Prefetch: return "Prefetch";
      default:                break;
    }
    panic("opClassName: bad op class");
}

} // namespace vsv
