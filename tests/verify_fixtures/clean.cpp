// Clean fixture: ordinary code that must produce zero findings.
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace fixture {

int add(int a, int b) { return a + b; }

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) {
    sum += v;  // ordered container: fine
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

void report(int total) {
  std::printf("total=%d\n", total);  // no secret involved
}

void key_layout_dump(const std::map<std::string, int>& key_layout) {
  // key_layout is a benign-prefixed name, not key material.
  std::printf("entries=%zu\n", key_layout.size());
}

// Non-secret comparisons are fine.
bool slot_ready(std::size_t slot, std::size_t limit) { return slot != limit; }

// Wide shifts through an explicitly 64-bit operand are the sanctioned
// pattern (this is what sim::BitRange::mask does).
std::uint64_t top_bit_mask(unsigned bit) { return std::uint64_t{1} << bit; }
std::uint64_t low_mask() { return (1ull << 40) - 1; }

// Logging non-secret run facts is what obs is for.
void report_trials(std::uint64_t trials, double snr_db) {
  std::printf("trials=%llu snr=%.2f dB\n",
              static_cast<unsigned long long>(trials), snr_db);
}

}  // namespace fixture
