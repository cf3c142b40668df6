// Shift-overflow violations: literal shifts past the operand width.
#include <cstdint>

namespace fixture {

std::uint64_t int_shift_past_31() {
  // `1` is a 32-bit int: shifting by 40 is UB even though the result is
  // assigned to a 64-bit variable.
  return 1 << 40;  // expect: shift-overflow
}

std::uint64_t wide_shift_past_63() {
  return 1ull << 64;  // expect: shift-overflow
}

std::uint64_t value_shifted_off_the_top() {
  // The literal needs 9 bits, so 9 + 56 > 64 shifts set bits off the end.
  return 511ull << 56;  // expect: shift-overflow
}

}  // namespace fixture
