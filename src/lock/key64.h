// 64-bit secret key type.
//
// In the paper's scheme the key IS the configuration word of the
// programmable fabric (Section IV.A): the 64 analog programming bits of
// the receiver. Key64 is a strong type so keys, raw words, and
// configuration fields don't get mixed up silently.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/bitfield.h"
#include "sim/rng.h"

namespace analock::lock {

class Key64 {
 public:
  constexpr Key64() = default;
  constexpr explicit Key64(std::uint64_t bits) : bits_(bits) {}

  [[nodiscard]] constexpr std::uint64_t bits() const { return bits_; }

  [[nodiscard]] constexpr bool bit(unsigned i) const {
    return sim::extract_bit(bits_, i);
  }
  [[nodiscard]] constexpr Key64 with_bit(unsigned i, bool v) const {
    return Key64{sim::insert_bit(bits_, i, v)};
  }
  [[nodiscard]] constexpr std::uint64_t field(sim::BitRange r) const {
    return sim::extract_bits(bits_, r);
  }
  [[nodiscard]] constexpr Key64 with_field(sim::BitRange r,
                                           std::uint64_t v) const {
    return Key64{sim::insert_bits(bits_, r, v)};
  }

  /// Bitwise XOR — the PUF key-wrapping operation of Fig. 3(b).
  [[nodiscard]] constexpr Key64 operator^(const Key64& other) const {
    return Key64{bits_ ^ other.bits_};
  }

  [[nodiscard]] constexpr unsigned hamming_distance(const Key64& other) const {
    return sim::hamming_distance(bits_, other.bits_);
  }

  /// Uniformly random key (the brute-force attacker's draw).
  [[nodiscard]] static Key64 random(sim::Rng& rng) {
    return Key64{rng.next_u64()};
  }

  /// 16-digit hex form, e.g. "0x3fa9c10000000000".
  [[nodiscard]] std::string to_hex() const;

  /// Parses "0x..."/plain hex; returns false on malformed input.
  static bool from_hex(std::string_view text, Key64& out);

  /// Early-exit word comparison — NON-secret uses only (attack-side
  /// candidate keys, test assertions). Any comparison where an operand is
  /// real secret material (provisioned configuration keys, PUF id keys,
  /// decrypted activation plaintext) must go through analock::ct_equal
  /// (lock/ct_equal.h); analock-verify's `secret-compare` rule flags
  /// ==/!= on operands whose names mark them as key material.
  friend constexpr bool operator==(const Key64&, const Key64&) = default;

 private:
  std::uint64_t bits_ = 0;
};

}  // namespace analock::lock
