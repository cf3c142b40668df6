// RNG-source violations: std <random> engines and ambient entropy not
// derived from the seeded sim::Rng streams.
#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <random>
#include <vector>

namespace fixture {

int default_seeded() {
  std::mt19937 gen;  // expect: rng-source
  return static_cast<int>(gen());
}

int ambient_seeded() {
  std::random_device rd;  // expect: rng-source
  std::mt19937_64 gen(rd());  // expect: rng-source
  return static_cast<int>(gen() & 0x7fffffff);
}

int libc_rng() {
  return rand();  // expect: rng-source
}

void libc_seed() {
  srand(42);  // expect: rng-source
}

long long wall_clock_seed() {
  return static_cast<long long>(time(nullptr));  // expect: rng-source
}

std::mt19937 default_engine() {
  return std::mt19937{};  // expect: rng-source
}

void bad_shuffle(std::vector<int>& order) {
  std::mt19937 engine(42);  // expect: rng-source
  std::shuffle(order.begin(), order.end(), engine);  // expect: rng-source
}

void bad_sample(const std::vector<int>& pool, std::vector<int>& picked) {
  std::mt19937_64 engine(7);  // expect: rng-source
  // expect: rng-source
  std::sample(pool.begin(), pool.end(), std::back_inserter(picked), 3,
              engine);
}

template <typename SimRng>
void sim_shuffle(std::vector<int>& order, SimRng& rng) {
  std::shuffle(order.begin(), order.end(), rng);  // sim stream: fine
}

}  // namespace fixture
