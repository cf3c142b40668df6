// Shared plumbing for the paper-experiment benches: chip fabrication +
// calibration, deceptive-key construction, observability session
// management, the profiling harness, and table printing.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "calib/calibrator.h"
#include "lock/evaluator.h"
#include "lock/key_layout.h"
#include "obs/obs.h"
#include "obs/prof/prof.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace analock::bench {

// The profiling/benchmark harness (src/obs/prof/): every bench main
// registers its cases on a Harness and returns h.run(), which emits the
// BENCH_<name>.json trajectory artifact and the folded-stacks profile.
using prof::CaseOptions;
using prof::Harness;
using prof::do_not_optimize;

/// Enables observability for the lifetime of a bench process and streams
/// the event record to `<bench_name>.jsonl` in the working directory.
/// Declare one at file scope in each bench:
///
///   const bench::ObsSession kObsSession("bench_attack_bruteforce");
///
/// At process exit it ends the run (obs::finish_run): summary events
/// into the artifact, then the one human run report under the bench's
/// tables. ANALOCK_OBS_JSONL=<path> redirects the artifact (the registry
/// opens it); ANALOCK_OBS_JSONL=0 suppresses it (metrics stay on).
class ObsSession {
 public:
  explicit ObsSession(const std::string& bench_name) {
    obs::Registry& reg = obs::registry();  // applies the environment
    reg.set_enabled(true);
    const char* env = std::getenv("ANALOCK_OBS_JSONL");
    if (reg.has_sink()) {
      if (env != nullptr) artifact_ = env;
    } else if (env == nullptr || env[0] == '\0') {
      artifact_ = bench_name + ".jsonl";
      auto sink = std::make_unique<obs::JsonlSink>(artifact_);
      if (sink->ok()) {
        reg.set_sink(std::move(sink));
      } else {
        std::fprintf(stderr, "warning: cannot open %s, JSONL sink disabled\n",
                     artifact_.c_str());
        artifact_.clear();
      }
    }
  }

  ~ObsSession() {
    obs::finish_run(stdout);
    if (!artifact_.empty()) {
      std::printf("observability artifact: %s\n", artifact_.c_str());
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  std::string artifact_;
};

/// Workload budget so CI can run a bench as a fast smoke test:
/// ANALOCK_BENCH_TRIALS replaces per-attack oracle budgets and scales
/// sweep sizes when set. Parsing lives in the harness (prof::bench_env)
/// so every bench honors the knob identically.
inline std::uint64_t trials_budget(std::uint64_t fallback) {
  return prof::trials_budget(fallback);
}

/// `n` scaled proportionally to the trials budget relative to `ref`
/// (e.g. scaled_by_budget(100000, 100) is 1000 at ANALOCK_BENCH_TRIALS=1
/// and 100000 by default). Never returns less than 1.
inline int scaled_by_budget(int n, std::uint64_t ref) {
  const std::uint64_t budget = trials_budget(ref);
  if (budget >= ref) return n;
  const double scale =
      static_cast<double>(budget) / static_cast<double>(ref);
  const int scaled = static_cast<int>(static_cast<double>(n) * scale);
  return scaled < 1 ? 1 : scaled;
}

/// One fabricated + calibrated chip instance.
struct Chip {
  sim::ProcessVariation pv;
  sim::Rng rng;
  calib::CalibrationResult cal;
};

/// Master seed shared by every bench so figures are reproducible and
/// mutually consistent.
inline constexpr std::uint64_t kBenchSeed = 20260704;

/// Fabricates chip `chip_id` and runs the full 14-step calibration.
inline Chip make_calibrated_chip(const rf::Standard& standard,
                                 std::uint64_t chip_id = 0,
                                 std::uint64_t seed = kBenchSeed) {
  sim::Rng master(seed);
  Chip chip{sim::ProcessVariation::monte_carlo(master, chip_id),
            master.fork("chip", chip_id), {}};
  calib::Calibrator calibrator(standard, chip.pv, chip.rng);
  chip.cal = calibrator.run();
  return chip;
}

inline lock::LockEvaluator make_evaluator(const rf::Standard& standard,
                                          const Chip& chip,
                                          lock::EvaluatorOptions options = {}) {
  return lock::LockEvaluator(standard, chip.pv, chip.rng, options);
}

/// The paper's "deceptive" invalid-key class (key #7 in Figs. 7-12):
/// feedback loop open + comparator un-clocked, everything else as the
/// correct key.
inline lock::Key64 make_deceptive_key(const lock::Key64& correct) {
  using L = lock::KeyLayout;
  return correct.with_bit(L::kFeedbackEnable, false)
      .with_bit(L::kCompClockEnable, false);
}

/// Section-header banner for the bench stdout reports.
inline void banner(const char* experiment, const char* description) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n%s\n", experiment, description);
  std::printf("==============================================================\n");
}

/// Clamps the unbounded "no signal found" floor for display (the paper's
/// plots bottom out around -40 dB).
inline double display_snr(double snr_db) {
  return snr_db < -60.0 ? -60.0 : snr_db;
}

}  // namespace analock::bench
