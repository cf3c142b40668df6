// Compile-fail fixture (ctest layout_static_asserts): 16 + 16 + 16 + 8
// field bits + 2 mode bits = 58 of 64, so encode/decode would silently
// drop six key bits.
#include "sim/bitfield.h"

namespace {

constexpr analock::sim::BitRange kFields[] = {
    {0, 16}, {16, 16}, {32, 16}, {48, 8}};
constexpr unsigned kModeBits[] = {56, 57};
static_assert(analock::sim::check_layout<kFields, kModeBits>());

}  // namespace
