// Bias-programmable blocks of the BP RF sigma-delta modulator (Fig. 6):
// input transconductor Gmin, pre-amplifier, clocked comparator, feedback
// DAC, fractional loop delay, and the calibration output buffer.
//
// Every block exposes a 6-bit (4-bit for delay/buffer) bias code. The code
// maps to a bias multiplier m in [0.25, 1.75]; gain scales with m while
// noise and offsets improve or degrade with it, so each block has a
// chip-dependent sweet spot the calibration must find — these codes are
// the key bits of the locking scheme.
#pragma once

#include <cmath>
#include <cstdint>

#include "sim/noise.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace analock::rf {

/// Bias-code to bias-current multiplier: code 0..63 -> 0.25..1.75,
/// mid-scale (code 32) close to nominal.
[[nodiscard]] double bias_multiplier(std::uint32_t code);

/// Inverse: the code whose multiplier is nearest `m`.
[[nodiscard]] std::uint32_t bias_code_for_multiplier(double m);

/// Odd memoryless soft nonlinearity with unit small-signal gain and the
/// given IIP3 amplitude; monotone (clamped past its inflection). Inline
/// so the scalar blocks and rf::ReceiverBatch share one definition.
// analock: thread_safe -- stateless
[[nodiscard]] inline double cubic_soft(double x, double iip3_amplitude) {
  // y = x - 4 x^3 / (3 A^2): unit slope at 0, IIP3 amplitude A. Clamp past
  // the inflection point x* = A/2 to keep the transfer monotone.
  const double a = iip3_amplitude;
  const double x_star = a / 2.0;
  const double y_star = x_star - 4.0 * x_star * x_star * x_star / (3.0 * a * a);
  if (x > x_star) return y_star;
  if (x < -x_star) return -y_star;
  return x - 4.0 * x * x * x / (3.0 * a * a);
}

/// Input transconductor Gmin: converts the VGLNA output voltage to the
/// modulator's normalized loop signal. Turning it off (calibration step 3)
/// disconnects the RF input.
class Transconductor {
 public:
  /// Nominal transconductance: volts at the input map to modulator
  /// full-scale units. 2.0 places a -25 dBm / 20 dB-VGLNA-gain tone at
  /// ~0.36 FS.
  static constexpr double kGmNominal = 2.0;
  static constexpr double kNoiseRmsNominal = 0.008;  ///< FS units per sample
  static constexpr double kIip3VoltsNominal = 2.4;

  Transconductor(const sim::ProcessVariation& process, sim::Rng noise_rng);

  void set_bias(std::uint32_t code);
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] double effective_gm() const;

  /// IIP3 amplitude at the current bias (linearity improves with bias
  /// current); the value `process` applies through cubic_soft.
  [[nodiscard]] double iip3_amplitude() const {
    return kIip3VoltsNominal * std::sqrt(bias_m_);
  }
  [[nodiscard]] double noise_rms() const { return noise_.rms(); }
  [[nodiscard]] sim::Rng& noise_stream() { return noise_.stream(); }

  /// One sample: voltage in, normalized loop signal out.
  double process(double v_in);

 private:
  double gm_chip_;
  double bias_m_ = 1.0;
  bool enabled_ = true;
  sim::GaussianNoise noise_;
};

/// Pre-amplifier ahead of the comparator.
class PreAmplifier {
 public:
  static constexpr double kGainNominal = 4.0;
  static constexpr double kNoiseRmsNominal = 0.004;
  static constexpr double kRail = 8.0;

  PreAmplifier(const sim::ProcessVariation& process, sim::Rng noise_rng);

  void set_bias(std::uint32_t code);
  [[nodiscard]] double effective_gain() const;
  [[nodiscard]] double noise_rms() const { return noise_.rms(); }
  [[nodiscard]] sim::Rng& noise_stream() { return noise_.stream(); }

  double process(double x);

 private:
  double gain_chip_;
  double bias_m_ = 1.0;
  sim::GaussianNoise noise_;
};

/// Clocked regenerative comparator. With its clock deactivated
/// (calibration step 1 / the paper's deceptive key) it degenerates into an
/// analog buffer that passes the loop signal un-digitized.
class Comparator {
 public:
  static constexpr double kNoiseRmsNominal = 0.008;
  static constexpr double kKickbackNoise = 0.012;
  /// Analog output swing when un-clocked: without clocked regeneration the
  /// latch never reaches full logic levels, so its waveform stays below
  /// the digital section's input threshold — the reason the paper's
  /// "deceptive" key collapses at the receiver output (Fig. 9).
  static constexpr double kBufferRail = 0.45;

  Comparator(const sim::ProcessVariation& process, sim::Rng noise_rng);

  void set_bias(std::uint32_t code);
  void set_clock_enabled(bool enabled) { clocked_ = enabled; }
  [[nodiscard]] bool clock_enabled() const { return clocked_; }

  /// One decision (clocked: +/-1) or one buffered sample (un-clocked).
  double process(double x);

  [[nodiscard]] double effective_offset() const { return offset_eff_; }
  [[nodiscard]] double effective_noise_rms() const;
  [[nodiscard]] double noise_rms() const { return noise_.rms(); }
  [[nodiscard]] sim::Rng& noise_stream() { return noise_.stream(); }

 private:
  double offset_chip_;
  double noise_scale_chip_;
  double bias_m_ = 1.0;
  double offset_eff_ = 0.0;
  bool clocked_ = true;
  sim::GaussianNoise noise_;
};

/// One-bit feedback DAC. The digital input is re-sliced (it is a logic
/// cell), so an analog comparator output still produces +/-1 decisions at
/// the DAC; bias errors show up as level asymmetry and ISI-like noise.
class FeedbackDac {
 public:
  static constexpr double kNoiseRmsNominal = 0.008;
  /// Extra noise per unit of bias deviation (ISI / settling error).
  static constexpr double kNoisePerDelta = 0.080;
  /// Level asymmetry per unit of bias deviation.
  static constexpr double kAsymmetryPerDelta = 0.150;

  FeedbackDac(const sim::ProcessVariation& process, sim::Rng noise_rng);

  void set_bias(std::uint32_t code);
  [[nodiscard]] double effective_gain() const { return gain_eff_; }
  [[nodiscard]] double level_plus() const { return level_plus_; }
  [[nodiscard]] double level_minus() const { return level_minus_; }
  [[nodiscard]] double noise_rms() const { return noise_.rms(); }
  [[nodiscard]] sim::Rng& noise_stream() { return noise_.stream(); }

  /// Converts one (analog or digital) comparator sample to the feedback
  /// waveform value.
  double convert(double comparator_out);

 private:
  double gain_chip_;
  double bias_m_ = 1.0;
  double gain_eff_ = 1.0;
  double level_plus_ = 1.0;
  double level_minus_ = -1.0;
  double noise_rms_ = kNoiseRmsNominal;
  sim::GaussianNoise noise_;
};

/// Fractional delay line in the DAC feedback path. The loop sees
/// 1 structural sample (the decision is pushed after it is taken) plus
/// this line's delay of parasitic (process) + code * kStepSamples; the
/// loop is designed for 2.0 samples total, so the correct code is
/// chip-dependent (calibration step 11).
class FractionalDelayLine {
 public:
  static constexpr std::size_t kDepth = 8;
  static constexpr double kStepSamples = 1.0 / 15.0;

  explicit FractionalDelayLine(double parasitic_samples);

  void set_code(std::uint32_t code);
  [[nodiscard]] double total_delay_samples() const { return delay_; }

  void push(double x);
  /// Linearly interpolated sample `total_delay_samples()` in the past
  /// (relative to the most recent push).
  [[nodiscard]] double read() const;

  void reset();

 private:
  double parasitic_;
  double delay_;
  double buf_[kDepth] = {};
  std::size_t pos_ = 0;
};

/// Output buffer used during calibration to drive the off-chip load
/// (removed from the signal path in normal operation, step 2).
class OutputBuffer {
 public:
  static constexpr double kRail = 1.5;

  explicit OutputBuffer(sim::Rng noise_rng);

  void set_code(std::uint32_t code);
  [[nodiscard]] double gain() const { return gain_; }
  [[nodiscard]] double noise_rms() const { return noise_.rms(); }
  [[nodiscard]] sim::Rng& noise_stream() { return noise_.stream(); }
  double process(double x);

 private:
  double gain_ = 1.0;
  sim::GaussianNoise noise_;
};

}  // namespace analock::rf
