// Bit-field packing helpers for 64-bit configuration words.
//
// The programmable fabric of the receiver is controlled by a 64-bit word
// whose sub-fields (capacitor codes, bias codes, mode bits) are defined in
// lock/key_layout.h. These helpers implement the raw extract/insert
// plumbing with range checking at the call site's responsibility expressed
// as assertions.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>

namespace analock::sim {

/// A contiguous bit range [lsb, lsb + width) inside a 64-bit word.
struct BitRange {
  unsigned lsb = 0;
  unsigned width = 1;

  /// A range is well-formed when it is non-empty and fits entirely inside
  /// the 64-bit word. Everything below asserts this: `lsb + width > 64`
  /// would silently shift field bits off the top, and `lsb >= 64` is
  /// outright shift UB. check_layout() proves this at compile time for
  /// layout tables; these asserts cover ranges built at runtime.
  [[nodiscard]] constexpr bool valid() const {
    return width >= 1 && lsb < 64 && width <= 64 - lsb;
  }

  [[nodiscard]] constexpr std::uint64_t mask() const {
    assert(valid() && "BitRange out of the 64-bit word");
    // The width == 64 branch avoids the UB of a 64-bit shift by 64
    // (valid() already pins lsb to 0 in that case).
    return width >= 64 ? ~std::uint64_t{0}
                       : ((std::uint64_t{1} << width) - 1) << lsb;
  }
  [[nodiscard]] constexpr std::uint64_t max_value() const {
    assert(valid() && "BitRange out of the 64-bit word");
    return width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  }
  [[nodiscard]] constexpr bool overlaps(const BitRange& other) const {
    return (mask() & other.mask()) != 0;
  }
};

/// Reads the field `range` out of `word`.
[[nodiscard]] constexpr std::uint64_t extract_bits(std::uint64_t word,
                                                   BitRange range) {
  return (word & range.mask()) >> range.lsb;
}

/// Returns `word` with the field `range` replaced by `value`.
/// `value` must fit in the field.
[[nodiscard]] constexpr std::uint64_t insert_bits(std::uint64_t word,
                                                  BitRange range,
                                                  std::uint64_t value) {
  assert(value <= range.max_value() && "field value out of range");
  return (word & ~range.mask()) | ((value << range.lsb) & range.mask());
}

/// Reads a single bit.
[[nodiscard]] constexpr bool extract_bit(std::uint64_t word, unsigned bit) {
  assert(bit < 64 && "bit index out of the 64-bit word");
  return ((word >> bit) & 1u) != 0;
}

/// Returns `word` with one bit set or cleared.
[[nodiscard]] constexpr std::uint64_t insert_bit(std::uint64_t word,
                                                 unsigned bit, bool value) {
  assert(bit < 64 && "bit index out of the 64-bit word");
  const std::uint64_t mask = std::uint64_t{1} << bit;
  return value ? (word | mask) : (word & ~mask);
}

// Key-layout invariants over a table of fields plus single mode bits.
// lock/key_layout.cpp checks the real layout with check_layout(); the
// compile-fail fixtures in tests/verify_fixtures/layout/ check that each
// broken layout is rejected with its own message.

/// Every field and mode bit lies inside the 64-bit word.
[[nodiscard]] constexpr bool layout_ranges_valid(
    std::span<const BitRange> fields, std::span<const unsigned> mode_bits) {
  for (const BitRange& f : fields) {
    if (!f.valid()) return false;
  }
  for (const unsigned b : mode_bits) {
    if (b >= 64) return false;
  }
  return true;
}

/// No key bit belongs to two fields or mode bits. Needs valid ranges.
[[nodiscard]] constexpr bool layout_disjoint(
    std::span<const BitRange> fields, std::span<const unsigned> mode_bits) {
  std::uint64_t covered = 0;
  for (const BitRange& f : fields) {
    if ((covered & f.mask()) != 0) return false;
    covered |= f.mask();
  }
  for (const unsigned b : mode_bits) {
    if ((covered >> b) & 1u) return false;
    covered |= std::uint64_t{1} << b;
  }
  return true;
}

/// The key bits the fields and mode bits cover. Needs valid ranges.
[[nodiscard]] constexpr std::uint64_t layout_coverage(
    std::span<const BitRange> fields, std::span<const unsigned> mode_bits) {
  std::uint64_t covered = 0;
  for (const BitRange& f : fields) covered |= f.mask();
  for (const unsigned b : mode_bits) covered |= std::uint64_t{1} << b;
  return covered;
}

/// Compile-time layout check: fields and mode bits fit the word, are
/// pairwise disjoint, and tile all 64 bits. Each assert is conditioned
/// on the ones before it, so a broken layout reports only its first
/// defect.
template <const auto& Fields, const auto& ModeBits>
consteval bool check_layout() {
  constexpr bool in_range = layout_ranges_valid(Fields, ModeBits);
  constexpr bool disjoint = in_range && layout_disjoint(Fields, ModeBits);
  static_assert(in_range, "a key field falls outside the word");
  static_assert(!in_range || disjoint, "key fields overlap");
  static_assert(!disjoint ||
                    layout_coverage(Fields, ModeBits) == ~std::uint64_t{0},
                "key fields do not tile all 64 bits");
  return true;
}

/// Population count of differing bits between two words (Hamming distance).
[[nodiscard]] constexpr unsigned hamming_distance(std::uint64_t a,
                                                  std::uint64_t b) {
  std::uint64_t x = a ^ b;
  unsigned count = 0;
  while (x != 0) {
    x &= x - 1;
    ++count;
  }
  return count;
}

}  // namespace analock::sim
