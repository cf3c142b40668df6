// Benchmark harness and BENCH_*.json trajectory layer.
//
// Replaces the ad-hoc per-bench loops: named cases, optional warmup,
// adaptive repetition, robust statistics (median/MAD/p95/min), per-rep
// perf-counter deltas, environment capture, and a span profile. The
// profile is the measured-rep slice of the registry's span tree: per
// case, the difference of two tree snapshots taken around the measured
// reps (warmups excluded), summed over cases. For its lifetime the
// harness lends the registry its PerfCounters, so tree nodes carry self
// counter deltas. Each bench binary runs
//
//   int main() {
//     analock::bench::Harness h("bench_fig07_snr_modulator");
//     h.add_case("fig07", run_fig07);
//     return h.run();
//   }
//
// and emits, next to its bench_<name>.jsonl event record:
//
//   BENCH_<name>.json    schema-versioned trajectory artifact
//                        (validated by tools/check_jsonl.py --bench-json,
//                         diffed across runs by tools/bench_compare.py)
//   bench_<name>.folded  folded stacks for flamegraph tooling
//
// Environment knobs (parsed once, shared by every bench):
//   ANALOCK_BENCH_TRIALS       workload budget; trials_budget(fallback)
//                              is THE way benches read it
//   ANALOCK_BENCH_REPS         exact repetition count per case
//   ANALOCK_BENCH_WARMUP       warmup runs per case (default 0)
//   ANALOCK_BENCH_MIN_TIME_MS  adaptive-rep time target (default 200)
//   ANALOCK_BENCH_MAX_REPS     adaptive-rep cap (default 16)
//   ANALOCK_BENCH_JSON         0 = no JSON/folded artifacts; or a path
//                              overriding BENCH_<name>.json
//   ANALOCK_PERF               0 = force the chrono fallback (no
//                              perf_event_open; CI smoke mode)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/prof/perf_counters.h"

namespace analock::prof {

/// Robust summary of one sample set.
struct Stats {
  std::uint64_t n = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double median = 0.0;
  double mad = 0.0;  // median absolute deviation (robust spread)
  double p95 = 0.0;
};

/// Median/MAD/p95/min/max/mean of `samples` (order-insensitive).
[[nodiscard]] Stats compute_stats(std::vector<double> samples);

/// Shared benchmark environment, parsed from the process env exactly once
/// so every bench honors the same knobs identically.
struct BenchEnv {
  std::optional<std::uint64_t> trials;  // ANALOCK_BENCH_TRIALS
  int reps_override = 0;                // ANALOCK_BENCH_REPS (0 = adaptive)
  int warmup = 0;                       // ANALOCK_BENCH_WARMUP
  double min_time_ms = 200.0;           // ANALOCK_BENCH_MIN_TIME_MS
  int max_reps = 16;                    // ANALOCK_BENCH_MAX_REPS
  std::string json_override;            // ANALOCK_BENCH_JSON ("" = default)
  bool json_disabled = false;           // ANALOCK_BENCH_JSON=0
  bool force_chrono = false;            // ANALOCK_PERF=0
};
[[nodiscard]] const BenchEnv& bench_env();

/// Workload budget: ANALOCK_BENCH_TRIALS when set (and > 0), else
/// `fallback`. Hoisted here so every bench's smoke-scaling behaves
/// identically (was per-bench copy/paste).
[[nodiscard]] std::uint64_t trials_budget(std::uint64_t fallback);

/// Per-case tuning.
struct CaseOptions {
  double ops_per_rep = 1.0;  // ns/op normalization for micro cases
  int warmup = -1;           // -1 = BenchEnv.warmup
  int min_reps = 1;
  /// Free-form numeric annotations carried into the JSON (e.g. the
  /// paper's projected silicon cost for the same measurement).
  std::vector<std::pair<std::string, double>> notes;
};

/// One timed repetition.
struct RepSample {
  std::uint64_t t_ns = 0;  // begin timestamp (registry clock)
  double wall_ms = 0.0;
  CounterValues counters;  // deltas across the rep
};

/// One completed case.
struct CaseResult {
  std::string name;
  CaseOptions options;
  int warmups = 0;
  std::vector<RepSample> reps;
  Stats wall_ms;
};

class Harness {
 public:
  explicit Harness(std::string bench_name);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  void add_case(std::string name, std::function<void()> fn,
                CaseOptions options = {});

  /// Runs every registered case (warmup, adaptive reps, stats), prints
  /// the per-case table, writes BENCH_<name>.json and the folded-stacks
  /// artifact. Returns a process exit code. The span tree itself is
  /// printed once, by the end-of-run report (obs::finish_run).
  int run();

  /// The BENCH_*.json document for the current results (valid after
  /// run(); exposed for tests).
  [[nodiscard]] std::string json() const;
  /// Folded stacks for the run's span profile (valid after run()).
  [[nodiscard]] std::string folded() const;
  [[nodiscard]] const std::vector<CaseResult>& results() const {
    return results_;
  }
  /// The measured-rep span profile, depth-first (valid after run()).
  [[nodiscard]] std::vector<obs::SpanNode> profile() const;
  [[nodiscard]] const PerfCounters& counters() const { return counters_; }

 private:
  CaseResult run_case(const std::string& name,
                      const std::function<void()>& fn,
                      const CaseOptions& options);
  void print_case_table() const;
  void write_artifacts() const;

  std::string bench_name_;
  std::vector<std::pair<std::string, std::function<void()>>> cases_;
  std::vector<CaseOptions> case_options_;
  PerfCounters counters_;
  std::vector<CaseResult> results_;
  // Measured-rep tree deltas keyed by path; summed over cases.
  std::map<std::string, obs::SpanNode, obs::SpanPathLess> profile_;
};

/// Keeps the compiler from proving a benchmarked expression dead.
template <class T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");  // NOLINT
}

}  // namespace analock::prof
