#include "rf/vglna.h"

#include <algorithm>
#include <cmath>

#include "sim/units.h"

namespace analock::rf {

namespace {

/// Gain level table: code 0..15 spans -9..+36 dB in 3 dB steps.
[[nodiscard]] double nominal_gain_db(std::uint32_t code) {
  return -9.0 + 3.0 * static_cast<double>(code);
}

/// Per-stage input IIP3 amplitude (volts peak). Fixed stage linearity makes
/// the cascade's input-referred IIP3 degrade as gain rises.
constexpr double kStageIip3Volts = 2.4;

}  // namespace

Vglna::Vglna(const sim::ProcessVariation& process, sim::Rng noise_rng,
             double fs_hz)
    : process_(process),
      noise_(sim::GaussianNoise::thermal(noise_rng.fork("vglna-noise"), fs_hz,
                                         3.0)),
      fs_hz_(fs_hz) {
  rebuild_stages();
}

void Vglna::set_gain_code(std::uint32_t code) {
  gain_code_ = code & 0xFu;
  rebuild_stages();
}

double Vglna::gain_db_for_code(std::uint32_t code) const {
  return nominal_gain_db(code & 0xFu) + process_.vglna_gain_db_err;
}

double Vglna::gain_db() const { return gain_db_for_code(gain_code_); }

double Vglna::noise_figure_db() const {
  // High gain -> front-end dominated, low NF; low gain -> feedback network
  // dominates and NF rises.
  const double nf =
      3.0 + 0.4 * static_cast<double>(15 - gain_code_) + process_.vglna_nf_db_err;
  return std::max(1.0, nf);
}

double Vglna::iip3_dbm() const {
  // Input-referred: the last stage's fixed output linearity divided by the
  // preceding gain.
  const double total_gain = sim::from_db20(gain_db());
  const double last_stage_gain = stages_.back().gain;
  const double input_amp =
      kStageIip3Volts * last_stage_gain / std::max(1e-6, total_gain);
  return sim::peak_volts_to_dbm(input_amp) + process_.vglna_iip3_dbm_err;
}

void Vglna::rebuild_stages() {
  const double total_db = gain_db();
  const double stage_db = total_db / static_cast<double>(kNumStages);
  const double g = sim::from_db20(stage_db);
  for (auto& stage : stages_) {
    stage.gain = g;
    // y = g x + a3 x^3 with IIP3 amplitude A: a3 = -4 g / (3 A^2).
    stage.a3 = -4.0 * g / (3.0 * kStageIip3Volts * kStageIip3Volts);
    stage.x_peak = std::sqrt(stage.gain / (-3.0 * stage.a3));
    stage.y_peak = stage.gain * stage.x_peak +
                   stage.a3 * stage.x_peak * stage.x_peak * stage.x_peak;
  }
  noise_.set_rms(sim::thermal_noise_rms_volts(fs_hz_ / 2.0, noise_figure_db()));
}

double Vglna::process(double x) {
  double y = x + noise_();
  for (const Stage& stage : stages_) y = stage.process(y);
  return y;
}

}  // namespace analock::rf
