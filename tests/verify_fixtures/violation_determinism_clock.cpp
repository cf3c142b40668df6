// Determinism violation: ambient wall-clock reads outside the
// injectable obs::Clock.
#include <chrono>
#include <cstdint>

namespace fixture {

std::uint64_t raw_timestamp() {
  const auto t = std::chrono::steady_clock::now();  // expect: determinism-clock
  return static_cast<std::uint64_t>(t.time_since_epoch().count());
}

double wall_elapsed() {
  const auto t0 = std::chrono::system_clock::now();  // expect: determinism-clock
  const auto t1 = std::chrono::high_resolution_clock::now();  // expect: determinism-clock
  return std::chrono::duration<double>(t1.time_since_epoch()).count() -
         std::chrono::duration<double>(t0.time_since_epoch()).count();
}

}  // namespace fixture
