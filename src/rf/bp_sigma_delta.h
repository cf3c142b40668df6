// Band-pass RF sigma-delta modulator (paper Fig. 6, after Ashry &
// Aboushady's 4th-order fs/4 architecture [18]).
//
// Discrete-time behavioral model: two tunable LC resonators in a
// cascade-of-resonators feedback loop with a 1-bit clocked comparator, a
// fractional loop delay and a 1-bit feedback DAC. At the nominal
// configuration (tank tuned to fs/4, unity feedback, 2-sample loop delay)
// the linearized noise transfer function is (1 + z^-2)^2 — deep noise
// nulls at the fs/4 carrier. Every deviation programmed through the
// 60-bit modulator configuration degrades or destroys that shaping, which
// is exactly the locking mechanism of the paper.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "rf/lc_tank.h"
#include "rf/sd_blocks.h"
#include "rf/standards.h"
#include "sim/noise.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace analock::rf {

/// Decoded programming state of the modulator's analog section (60 bits;
/// the remaining 4 of the 64-bit word drive the VGLNA). See
/// lock/key_layout.h for the packed representation.
struct ModulatorConfig {
  std::uint32_t cap_coarse = 0;   ///< 8-bit coarse capacitor array Cc
  std::uint32_t cap_fine = 0;    ///< 8-bit fine capacitor array Cf
  std::uint32_t q_enh = 0;       ///< 6-bit -Gm Q-enhancement code
  std::uint32_t gmin_bias = 32;  ///< 6-bit input transconductor bias
  std::uint32_t dac_bias = 32;   ///< 6-bit feedback DAC bias
  std::uint32_t preamp_bias = 32;  ///< 6-bit pre-amplifier bias
  std::uint32_t comp_bias = 32;  ///< 6-bit comparator bias
  std::uint32_t loop_delay = 8;  ///< 4-bit loop-delay trim
  std::uint32_t out_buffer = 8;  ///< 4-bit calibration output buffer gain
  bool feedback_enable = true;   ///< DAC + loop delay active (cal step 4)
  bool comp_clock_enable = true; ///< comparator clocked (cal step 1)
  bool gmin_enable = true;       ///< RF input connected (cal step 3)
  bool buffer_in_path = false;   ///< output buffer in path (cal step 2)
  std::uint32_t test_mux = 0;    ///< 2-bit output mux: 0=comparator,
                                 ///< 1=resonator-1 tap, 2=pre-amp tap,
                                 ///< 3=muxed off

  friend bool operator==(const ModulatorConfig&,
                         const ModulatorConfig&) = default;
};

/// One modulator capture: the output stream plus bookkeeping the
/// calibration and the experiments need.
struct ModulatorCapture {
  std::vector<double> output;  ///< comparator (or muxed/buffered) samples
  double fs_hz = 0.0;
};

class BpSigmaDelta {
 public:
  /// Design full-scale: DAC levels are +/-1 at the nominal configuration.
  static constexpr double kFullScale = 1.0;
  /// Tank-loss thermal noise seeding the resonators (FS units / sample).
  static constexpr double kTankNoiseRms = 0.001;

  BpSigmaDelta(const Standard& standard, const sim::ProcessVariation& process,
               const sim::Rng& rng);

  /// Applies a decoded configuration to every block.
  void configure(const ModulatorConfig& config);
  [[nodiscard]] const ModulatorConfig& config() const { return config_; }

  [[nodiscard]] double fs_hz() const { return fs_hz_; }
  [[nodiscard]] const Standard& standard() const { return *standard_; }
  [[nodiscard]] const LcTank& tank() const { return tank_; }

  /// Configured-block introspection: rf::ReceiverBatch probes a scalar
  /// chip instance through these to harvest the per-lane constants
  /// (gains, levels, noise RMS values) instead of re-deriving the
  /// config->parameter maps.
  [[nodiscard]] const Resonator& resonator1() const { return res1_; }
  [[nodiscard]] const Resonator& resonator2() const { return res2_; }
  [[nodiscard]] const Transconductor& gmin() const { return gmin_; }
  [[nodiscard]] const PreAmplifier& preamp() const { return preamp_; }
  [[nodiscard]] const Comparator& comparator() const { return comparator_; }
  [[nodiscard]] const FeedbackDac& dac() const { return dac_; }
  [[nodiscard]] const FractionalDelayLine& delay_line() const {
    return delay_;
  }
  [[nodiscard]] const OutputBuffer& out_buffer() const { return buffer_; }

  /// Advances one sample at fs with RF input voltage `v_rf`; returns the
  /// modulator output (a +/-1 decision in normal operation, an analog
  /// sample when the comparator clock is off or a test tap is selected).
  double step(double v_rf);

  /// Resonator-2 state (the attacker of Section VI.A "can monitor
  /// internal nodes"; calibration sees it through the output mux).
  [[nodiscard]] double resonator2_state() const { return res2_.state(); }

  /// The blocks' live noise streams in the order the constructor forks
  /// them: Gmin, pre-amp, comparator, DAC, output buffer, tank 1, tank 2.
  /// rf::ReceiverBatch's one-lane form draws from them in place.
  [[nodiscard]] std::array<sim::Rng*, 7> noise_streams();

  /// True when the configured -Gm code overcompensates the tank loss
  /// (open-loop oscillation; calibration steps 5-7).
  [[nodiscard]] bool tank_oscillating() const;

  /// Clears all dynamic state (histories, resonators, delay line).
  void reset();

 private:
  void reconfigure_resonators();

  const Standard* standard_;
  sim::ProcessVariation process_;
  double fs_hz_;
  ModulatorConfig config_{};

  LcTank tank_;
  Resonator res1_;
  Resonator res2_;
  Transconductor gmin_;
  PreAmplifier preamp_;
  Comparator comparator_;
  FeedbackDac dac_;
  FractionalDelayLine delay_;
  OutputBuffer buffer_;
  sim::GaussianNoise tank_noise1_;
  sim::GaussianNoise tank_noise2_;

  // Structural z^-2 histories of the resonator inputs.
  double u_hist_[2] = {0.0, 0.0};
  double s1_hist_[2] = {0.0, 0.0};
};

}  // namespace analock::rf
