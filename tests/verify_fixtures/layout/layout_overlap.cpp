// Compile-fail fixture (ctest layout_static_asserts): the second field
// starts inside the first, so writing one corrupts the other.
#include "sim/bitfield.h"

namespace {

constexpr analock::sim::BitRange kFields[] = {{0, 32}, {16, 32}, {48, 14}};
constexpr unsigned kModeBits[] = {62, 63};
static_assert(analock::sim::check_layout<kFields, kModeBits>());

}  // namespace
