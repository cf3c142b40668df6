#include "calib/bias_optimizer.h"

#include <algorithm>

#include "lock/key_layout.h"

namespace analock::calib {

namespace {

lock::EvaluatorOptions make_eval_options(const BiasOptimizer::Options& opt) {
  lock::EvaluatorOptions eval;
  eval.fft_size = opt.fft_size;
  eval.input_dbm = opt.input_dbm;
  // Quick two-tone screen: shorter capture, wider spacing than the final
  // paper metrology so the products stay separable on the coarser grid.
  eval.sfdr_fft_size = 8192;
  eval.two_tone_spacing_hz = 20.0e6;
  eval.two_tone_dbm = opt.input_dbm - 5.0;
  return eval;
}

}  // namespace

BiasOptimizer::BiasOptimizer(const rf::Standard& standard,
                             const sim::ProcessVariation& process,
                             const sim::Rng& rng, Options options)
    : evaluator_(standard, process, rng, make_eval_options(options)),
      options_(options) {}

double BiasOptimizer::measure_snr(const rf::ReceiverConfig& config) {
  return evaluator_.snr_modulator_db(lock::encode_key(config));
}

double BiasOptimizer::measure_snr_at(const rf::ReceiverConfig& config,
                                     double input_dbm) {
  return evaluator_.snr_modulator_db(lock::encode_key(config), input_dbm);
}

double BiasOptimizer::measure_sfdr(const rf::ReceiverConfig& config) {
  return evaluator_.sfdr_db(lock::encode_key(config));
}

double BiasOptimizer::score(const rf::ReceiverConfig& config) {
  const double snr_margin = measure_snr(config) - options_.snr_spec_db;
  if (snr_margin < -options_.sfdr_gate_db) {
    // Far from the SNR spec: SFDR measurement would be wasted ATE time,
    // and the margin below already orders candidates.
    return snr_margin;
  }
  const double sfdr_margin = measure_sfdr(config) - options_.sfdr_spec_db;
  return std::min(snr_margin, sfdr_margin);
}

void BiasOptimizer::sweep_field(rf::ReceiverConfig& config,
                                std::uint32_t* field, std::uint32_t max_value,
                                double& best_score) {
  std::uint32_t best_code = *field;
  // Coarse grid over the full range.
  const std::uint32_t coarse_step = std::max<std::uint32_t>(1, max_value / 8);
  for (std::uint32_t code = 0; code <= max_value; code += coarse_step) {
    *field = code;
    const double s = score(config);
    if (s > best_score) {
      best_score = s;
      best_code = code;
    }
  }
  // Local refinement around the best coarse point.
  const std::uint32_t lo =
      best_code > coarse_step ? best_code - coarse_step : 0;
  const std::uint32_t hi = std::min(max_value, best_code + coarse_step);
  for (std::uint32_t code = lo; code <= hi; ++code) {
    if (code == best_code) continue;
    *field = code;
    const double s = score(config);
    if (s > best_score) {
      best_score = s;
      best_code = code;
    }
  }
  *field = best_code;
}

rf::ReceiverConfig BiasOptimizer::optimize(const rf::ReceiverConfig& start,
                                           std::size_t passes) {
  rf::ReceiverConfig config = start;
  double best_score = score(config);
  for (std::size_t pass = 0; pass < passes; ++pass) {
    // Step 11: loop delay according to Fs (trim against parasitics).
    sweep_field(config, &config.modulator.loop_delay, 15, best_score);
    // Step 14 order: Gmin, feedback DAC, pre-amplifier, comparator.
    sweep_field(config, &config.modulator.gmin_bias, 63, best_score);
    sweep_field(config, &config.modulator.dac_bias, 63, best_score);
    sweep_field(config, &config.modulator.preamp_bias, 63, best_score);
    sweep_field(config, &config.modulator.comp_bias, 63, best_score);
  }
  return config;
}

}  // namespace analock::calib
