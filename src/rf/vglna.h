// Variable-Gain Low Noise Amplifier (paper Fig. 5).
//
// Five cascaded gain stages with resistive feedback; a 4-bit configuration
// word selects one of 16 gain levels, adapting the receiver's sensitivity
// and dynamic range to the target standard. Each stage carries a
// third-order nonlinearity and rail clipping, so wrong gain codes either
// bury the signal in noise (too little gain) or compress it (too much) —
// the Fig. 11 behavior.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "sim/noise.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace analock::rf {

class Vglna {
 public:
  static constexpr unsigned kNumStages = 5;
  static constexpr unsigned kNumGainLevels = 16;
  /// Supply rail limiting every stage output (volts).
  static constexpr double kRailVolts = 1.2;

  /// One gain stage: y = clip(g*x + a3*x^3) with a3 set by the stage
  /// IIP3. The fold-back clamp bounds (x_peak, y_peak) are precomputed
  /// at configure time; `process` is branch-predictable and inline so
  /// the scalar path and rf::ReceiverBatch share one definition.
  struct Stage {
    double gain = 1.0;
    double a3 = 0.0;
    double x_peak = 0.0;
    double y_peak = 0.0;

    [[nodiscard]] double process(double x) const {
      double y = gain * x + a3 * x * x * x;
      // With a pure cubic the transfer folds back beyond the IIP3
      // amplitude; clamp to the monotone region before rail clipping.
      if (x > x_peak) y = y_peak;
      if (x < -x_peak) y = -y_peak;
      return std::clamp(y, -kRailVolts, kRailVolts);
    }
  };

  /// `fs_hz` sets the simulation bandwidth for the thermal-noise level.
  Vglna(const sim::ProcessVariation& process, sim::Rng noise_rng,
        double fs_hz);

  /// Selects one of the 16 gain levels (code 0..15).
  void set_gain_code(std::uint32_t code);
  [[nodiscard]] std::uint32_t gain_code() const { return gain_code_; }

  /// Total small-signal voltage gain at the current code (dB).
  [[nodiscard]] double gain_db() const;

  /// Noise figure at the current code (dB); improves with gain.
  [[nodiscard]] double noise_figure_db() const;

  /// Input-referred third-order intercept at the current code (dBm);
  /// degrades with gain (fixed per-stage output linearity).
  [[nodiscard]] double iip3_dbm() const;

  /// Amplifies one input sample (volts in, volts out).
  double process(double x);

  /// Gain in dB a given code would select on this chip instance.
  [[nodiscard]] double gain_db_for_code(std::uint32_t code) const;

  /// Configured stage cascade (all stages identical at a given code).
  [[nodiscard]] const std::array<Stage, kNumStages>& stages() const {
    return stages_;
  }

  /// RMS of the input-referred noise stream at the current code.
  [[nodiscard]] double noise_rms() const { return noise_.rms(); }
  /// The input-referred noise stream itself.
  [[nodiscard]] sim::Rng& noise_stream() { return noise_.stream(); }

 private:
  void rebuild_stages();

  sim::ProcessVariation process_;
  sim::GaussianNoise noise_;
  double fs_hz_;
  std::uint32_t gain_code_ = 0;
  std::array<Stage, kNumStages> stages_{};
};

}  // namespace analock::rf
