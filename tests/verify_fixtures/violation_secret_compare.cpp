// Secret-compare violations: early-exit comparison on key material.
#include <cstdint>
#include <cstring>

namespace fixture {

struct Key64 {
  std::uint64_t word = 0;
  std::uint64_t bits() const { return word; }
};

bool oracle_accepts(const Key64& stored_config_key, const Key64& probe) {
  // Early-exit equality: latency reveals the matching prefix length.
  return stored_config_key == probe;  // expect: secret-compare
}

bool oracle_rejects(const Key64& user_key_slot, const Key64& probe) {
  return user_key_slot != probe;  // expect: secret-compare
}

bool accessor_compare(const Key64& probe, std::uint64_t word) {
  return word == probe.bits();  // expect: secret-compare
}

// memcmp on key material is ct-leak-call's alone: the operand of `==`
// is the call's result, so secret-compare stays quiet on this line.
bool byte_oracle(const Key64& wrapped_key, const Key64& probe) {
  return std::memcmp(&wrapped_key, &probe, sizeof probe) == 0;  // expect: ct-leak-call
}

}  // namespace fixture
