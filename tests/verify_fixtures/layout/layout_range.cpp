// Compile-fail fixture (ctest layout_static_asserts): the second field
// claims bits [60, 68), four of which do not exist.
#include "sim/bitfield.h"

namespace {

constexpr analock::sim::BitRange kFields[] = {{0, 56}, {60, 8}};
constexpr unsigned kModeBits[] = {56, 57, 58, 59};
static_assert(analock::sim::check_layout<kFields, kModeBits>());

}  // namespace
