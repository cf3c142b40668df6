// White Gaussian noise sources for the behavioral blocks.
#pragma once

#include <cmath>

#include "sim/rng.h"
#include "sim/units.h"

namespace analock::sim {

/// Additive white Gaussian noise with a fixed RMS level per sample.
///
/// For a source specified by a one-sided PSD over a simulation running at
/// sample rate fs, the per-sample RMS is sqrt(psd * fs / 2): the discrete
/// sequence carries the full Nyquist-band power.
class GaussianNoise {
 public:
  GaussianNoise(Rng rng, double rms) : rng_(rng), rms_(rms) {}

  /// Source with RMS derived from a one-sided PSD (V^2/Hz) at rate fs.
  [[nodiscard]] static GaussianNoise from_psd(Rng rng, double psd_v2_per_hz,
                                              double fs_hz) {
    return GaussianNoise{rng, std::sqrt(psd_v2_per_hz * fs_hz / 2.0)};
  }

  /// Source modeling thermal noise of a stage with noise figure nf_db
  /// referred to a 50-ohm port, over Nyquist bandwidth fs/2.
  [[nodiscard]] static GaussianNoise thermal(Rng rng, double fs_hz,
                                             double nf_db) {
    return GaussianNoise{rng, thermal_noise_rms_volts(fs_hz / 2.0, nf_db)};
  }

  [[nodiscard]] double rms() const { return rms_; }
  void set_rms(double rms) { rms_ = rms; }

  /// The stream the samples are drawn from (rf::ReceiverBatch's one-lane
  /// form draws from it in place).
  [[nodiscard]] Rng& stream() { return rng_; }

  /// Next noise sample.
  double operator()() { return rms_ == 0.0 ? 0.0 : rng_.gaussian(0.0, rms_); }

 private:
  Rng rng_;
  double rms_;
};

}  // namespace analock::sim
