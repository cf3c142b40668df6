// Constant-time equality for secret material.
//
// Key64's defaulted operator== compiles to an early-exit word compare —
// fine for attack candidates and test assertions, but a timing side
// channel when one operand is the real configuration key: the comparison
// latency reveals how many leading limbs matched. GA- and SAT-style
// key-recovery attacks feed on exactly this kind of implementation
// leakage, so every comparison that touches secret key material goes
// through ct_equal instead. analock-verify's `secret-compare` rule
// enforces this mechanically (see tools/README.md).
//
// The fold is branch-free: XOR the operands, OR-reduce all difference
// bits into one word, and map {0 -> equal, nonzero -> unequal} without a
// data-dependent branch. A volatile read of the folded difference keeps
// the optimizer from collapsing the sequence back into a flag-setting
// compare-and-branch on the secret value.
#pragma once

#include <cstdint>
#include <span>

#include "lock/key64.h"

namespace analock {

/// Branch-free equality of two 64-bit words.
// analock: ct_safe
[[nodiscard]] inline bool ct_equal(std::uint64_t a, std::uint64_t b) {
  volatile std::uint64_t folded = a ^ b;
  const std::uint64_t d = folded;
  // For d != 0 either d or its two's complement has the top bit set, so
  // (d | -d) >> 63 is exactly the "differs" flag.
  return ((d | (~d + 1)) >> 63) == 0;
}

/// Branch-free equality of 32-bit words (frame tags, CRC residues).
// analock: ct_safe
[[nodiscard]] inline bool ct_equal(std::uint32_t a, std::uint32_t b) {
  return ct_equal(static_cast<std::uint64_t>(a),
                  static_cast<std::uint64_t>(b));
}

/// Constant-time equality of two key words.
// analock: ct_safe
[[nodiscard]] inline bool ct_equal(const lock::Key64& a,
                                   const lock::Key64& b) {
  return ct_equal(a.bits(), b.bits());
}

/// Branch-free two-way select: `flag ? yes : no` with `flag` in {0, 1}.
/// The mask expansion compiles to and/xor, never a conditional jump, so
/// selecting on a key bit does not modulate execution time.
// analock: ct_safe
[[nodiscard]] inline std::uint64_t ct_select(std::uint64_t flag,
                                             std::uint64_t yes,
                                             std::uint64_t no) {
  return no ^ ((yes ^ no) & (0 - flag));
}

/// Constant-time equality of two byte buffers. Unequal lengths compare
/// unequal immediately — length is not secret, the contents are. The
/// scan always touches every byte of both buffers.
// analock: ct_safe
[[nodiscard]] inline bool ct_equal(std::span<const std::uint8_t> a,
                                   std::span<const std::uint8_t> b) {
  if (a.size() != b.size()) return false;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc |= static_cast<std::uint64_t>(a[i] ^ b[i]);
  }
  return ct_equal(acc, std::uint64_t{0});
}

}  // namespace analock
