// Negative self-test fixture: the expect line below lists a rule that
// fires (rng-source) next to one that never does (lock-order-cycle). A
// self-test that counts the line satisfied once any listed rule fires
// would pass; ctest verify_selftest_partial requires the MISSED report.
#include <random>

int draw() {
  std::mt19937 gen;  // expect: rng-source, lock-order-cycle
  return static_cast<int>(gen());
}
