// Tests for the constant-time comparator that secret-key comparisons
// are required to use (analock-verify rule `secret-compare`).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "lock/ct_equal.h"
#include "lock/key64.h"
#include "sim/rng.h"

namespace {

using analock::ct_equal;
using analock::lock::Key64;

TEST(CtEqual, Word64Basics) {
  EXPECT_TRUE(ct_equal(std::uint64_t{0}, std::uint64_t{0}));
  EXPECT_TRUE(ct_equal(~std::uint64_t{0}, ~std::uint64_t{0}));
  EXPECT_FALSE(ct_equal(std::uint64_t{0}, std::uint64_t{1}));
  EXPECT_FALSE(ct_equal(std::uint64_t{1}, std::uint64_t{0}));
  EXPECT_FALSE(ct_equal(~std::uint64_t{0}, std::uint64_t{0}));
}

TEST(CtEqual, EverySingleBitDifferenceDetected) {
  const std::uint64_t base = 0xA5A5'5A5A'C3C3'3C3Cull;
  for (unsigned bit = 0; bit < 64; ++bit) {
    const std::uint64_t flipped = base ^ (std::uint64_t{1} << bit);
    EXPECT_FALSE(ct_equal(base, flipped)) << "bit " << bit;
    EXPECT_TRUE(ct_equal(flipped, flipped)) << "bit " << bit;
  }
}

TEST(CtEqual, Word32Overload) {
  EXPECT_TRUE(ct_equal(std::uint32_t{0xDEADBEEF}, std::uint32_t{0xDEADBEEF}));
  EXPECT_FALSE(ct_equal(std::uint32_t{0xDEADBEEF}, std::uint32_t{0xDEADBEEE}));
  // The widening must not let distinct 32-bit values alias.
  EXPECT_FALSE(ct_equal(std::uint32_t{0}, std::uint32_t{0x8000'0000}));
}

TEST(CtEqual, AgreesWithOperatorEqOnRandomKeys) {
  analock::sim::Rng rng(0xC7EA11u);
  for (int trial = 0; trial < 2000; ++trial) {
    const Key64 a = Key64::random(rng);
    // Mix in near-collisions: half the trials differ in at most one bit.
    const Key64 b = (trial % 2 == 0)
                        ? Key64::random(rng)
                        : a.with_bit(static_cast<unsigned>(trial % 64),
                                     !a.bit(static_cast<unsigned>(trial % 64)));
    // Oracle check against the (non-secret-safe) defaulted comparison.
    EXPECT_EQ(ct_equal(a, b), a == b);
  }
}

TEST(CtEqual, ByteSpans) {
  const std::array<std::uint8_t, 5> a{1, 2, 3, 4, 5};
  std::array<std::uint8_t, 5> b = a;
  EXPECT_TRUE(ct_equal(std::span<const std::uint8_t>(a),
                       std::span<const std::uint8_t>(b)));
  b[4] = 6;
  EXPECT_FALSE(ct_equal(std::span<const std::uint8_t>(a),
                        std::span<const std::uint8_t>(b)));
  b[4] = 5;
  b[0] = 0;  // difference in the first byte must not short-circuit
  EXPECT_FALSE(ct_equal(std::span<const std::uint8_t>(a),
                        std::span<const std::uint8_t>(b)));
}

TEST(CtEqual, ByteSpanLengthMismatch) {
  const std::vector<std::uint8_t> a{1, 2, 3};
  const std::vector<std::uint8_t> b{1, 2, 3, 4};
  const std::vector<std::uint8_t> empty;
  EXPECT_FALSE(ct_equal(std::span<const std::uint8_t>(a),
                        std::span<const std::uint8_t>(b)));
  EXPECT_TRUE(ct_equal(std::span<const std::uint8_t>(empty),
                       std::span<const std::uint8_t>(empty)));
}

}  // namespace
