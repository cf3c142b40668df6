#include "rf/bp_sigma_delta.h"

#include <cmath>

namespace analock::rf {

BpSigmaDelta::BpSigmaDelta(const Standard& standard,
                           const sim::ProcessVariation& process,
                           const sim::Rng& rng)
    : standard_(&standard),
      process_(process),
      fs_hz_(standard.fs_hz()),
      tank_(process),
      gmin_(process, rng.fork("sd-gmin")),
      preamp_(process, rng.fork("sd-preamp")),
      comparator_(process, rng.fork("sd-comparator")),
      dac_(process, rng.fork("sd-dac")),
      delay_(process.loop_delay_parasitic),
      buffer_(rng.fork("sd-buffer")),
      tank_noise1_(rng.fork("sd-tank1"), kTankNoiseRms),
      tank_noise2_(rng.fork("sd-tank2"), kTankNoiseRms) {
  configure(ModulatorConfig{});
}

void BpSigmaDelta::configure(const ModulatorConfig& config) {
  config_ = config;
  reconfigure_resonators();
  gmin_.set_bias(config.gmin_bias);
  gmin_.set_enabled(config.gmin_enable);
  preamp_.set_bias(config.preamp_bias);
  comparator_.set_bias(config.comp_bias);
  comparator_.set_clock_enabled(config.comp_clock_enable);
  dac_.set_bias(config.dac_bias);
  delay_.set_code(config.loop_delay);
  buffer_.set_code(config.out_buffer);
}

void BpSigmaDelta::reconfigure_resonators() {
  const double theta1 =
      tank_.pole_angle(config_.cap_coarse, config_.cap_fine, fs_hz_);
  const double r1 = tank_.pole_radius(config_.cap_coarse, config_.cap_fine,
                                      config_.q_enh, fs_hz_);
  res1_.configure(theta1, r1);
  // Resonator 2 sees the same codes through a small fabrication mismatch
  // in its capacitor array: theta scales as 1/sqrt(C).
  const double mismatch = 1.0 - 0.5 * tank_.mismatch_rel();
  res2_.configure(theta1 * mismatch, r1);
}

bool BpSigmaDelta::tank_oscillating() const {
  return tank_.oscillates(config_.q_enh);
}

double BpSigmaDelta::step(double v_rf) {
  // Input transconductor (off during calibration steps 5-7).
  const double u = gmin_.process(v_rf);

  // Feedback sample: DAC output delayed ~2 samples total (1 structural +
  // the fractional line).
  const double fb = config_.feedback_enable ? delay_.read() : 0.0;

  // Faithful z -> -z^2 image of the 2nd-order lowpass prototype:
  //   s1[n] = a1 s1[n-1] - a2 s1[n-2] - (u[n-2] -     v[n-2])
  //   s2[n] = a1 s2[n-1] - a2 s2[n-2] - (s1[n-2] - 2 v[n-2])
  const double s1 = res1_.step(-(u_hist_[1] - fb) + tank_noise1_());
  const double s2 = res2_.step(-(s1_hist_[1] - 2.0 * fb) + tank_noise2_());

  u_hist_[1] = u_hist_[0];
  u_hist_[0] = u;
  s1_hist_[1] = s1_hist_[0];
  s1_hist_[0] = s1;

  // Quantizer path.
  const double pre = preamp_.process(s2);
  const double y = comparator_.process(pre);

  // Feedback DAC re-slices its input (it is a digital cell) and drives the
  // delay line whether or not the loop is closed, like the hardware does.
  delay_.push(dac_.convert(y));

  // Output selection: normal operation taps the comparator; the 2-bit test
  // mux and the calibration buffer reroute it. Test taps are analog
  // buffers with the same limited swing as the un-clocked latch — they
  // never reach valid logic levels at the digital section's input.
  double out = y;
  switch (config_.test_mux) {
    case 1:
      out = Comparator::kBufferRail * (s1 / Resonator::kStateRail);
      break;
    case 2:
      out = Comparator::kBufferRail * (pre / PreAmplifier::kRail);
      break;
    case 3: out = 0.0; break;
    default: break;
  }
  if (config_.buffer_in_path) out = buffer_.process(out);
  return out;
}

std::array<sim::Rng*, 7> BpSigmaDelta::noise_streams() {
  return {&gmin_.noise_stream(),       &preamp_.noise_stream(),
          &comparator_.noise_stream(), &dac_.noise_stream(),
          &buffer_.noise_stream(),     &tank_noise1_.stream(),
          &tank_noise2_.stream()};
}

void BpSigmaDelta::reset() {
  res1_.reset();
  res2_.reset();
  delay_.reset();
  u_hist_[0] = u_hist_[1] = 0.0;
  s1_hist_[0] = s1_hist_[1] = 0.0;
}

}  // namespace analock::rf
