// analock: bit_exact
#include "lock/evaluator.h"

#include "obs/trace.h"
#include "rf/receiver_batch.h"

namespace analock::lock {

namespace {

/// Pool for single-key calls: a batch of one runs inline on the caller.
par::ThreadPool& inline_pool() {
  static par::ThreadPool pool(1);
  return pool;
}

std::span<const Key64> one(const Key64& key) { return {&key, 1}; }

}  // namespace

LockEvaluator::LockEvaluator(const rf::Standard& standard,
                             const sim::ProcessVariation& process,
                             const sim::Rng& rng, EvaluatorOptions options)
    : standard_(&standard),
      process_(process),
      rng_(rng.fork("lock-evaluator")),
      options_(options),
      tape_(rng_, options.settle + options.fft_size) {}

std::vector<rf::ReceiverConfig> LockEvaluator::lane_configs(
    std::span<const Key64> keys) const {
  std::vector<rf::ReceiverConfig> configs;
  configs.reserve(keys.size());
  for (const Key64& key : keys) {
    const Key64 applied =
        injector_ != nullptr ? Key64{injector_->perturb_word(key.bits())}
                             : key;
    configs.push_back(decode_key(applied, standard_->digital_mode));
  }
  return configs;
}

double LockEvaluator::faulted(const char* site, double clean_db) const {
  if (injector_ == nullptr) return clean_db;
  return injector_->perturb_measurement(site, clean_db);
}

std::vector<double> LockEvaluator::clean_snr_modulator(
    std::span<const Key64> keys, double input_dbm, par::ThreadPool& pool) {
  ANALOCK_SPAN("eval.snr_modulator");
  rf::ReceiverBatch batch(*standard_, process_, rng_, lane_configs(keys),
                          &tape_);
  const double offset = rf::default_tone_offset_hz(*standard_);
  const auto captures = batch.capture_modulator(
      rf::test_tone(*standard_, input_dbm, offset),
      options_.settle + options_.fft_size, options_.settle, pool);
  const auto spectra = dsp::Periodogram::many_real(captures, keys.size(),
                                                   standard_->fs_hz());
  std::vector<double> out(keys.size());
  for (std::size_t l = 0; l < keys.size(); ++l) {
    out[l] = dsp::measure_snr_osr(spectra[l], standard_->f0_hz + offset,
                                  standard_->fs_hz() / 4.0, standard_->osr)
                 .snr_db;
  }
  return out;
}

std::vector<double> LockEvaluator::clean_snr_receiver(
    std::span<const Key64> keys, double input_dbm, par::ThreadPool& pool) {
  ANALOCK_SPAN("eval.snr_receiver");
  // An empty baseband capture reads "locked hard".
  if (options_.baseband_points == 0) {
    return std::vector<double>(keys.size(), -200.0);
  }
  rf::ReceiverBatch batch(*standard_, process_, rng_, lane_configs(keys),
                          &tape_);
  const double offset = rf::default_tone_offset_hz(*standard_);
  const std::size_t n =
      rf::receiver_input_length(options_.baseband_points, options_.settle);
  const auto baseband = batch.capture_receiver(
      rf::test_tone(*standard_, input_dbm, offset), n, options_.settle,
      options_.baseband_points, /*settle_baseband=*/16, pool);
  const auto spectra = dsp::Periodogram::many_complex(
      baseband, keys.size(), batch.baseband_fs_hz());
  const double half_band = standard_->fs_hz() / (4.0 * standard_->osr);
  std::vector<double> out(keys.size());
  for (std::size_t l = 0; l < keys.size(); ++l) {
    out[l] = dsp::measure_snr(spectra[l], offset, -half_band, half_band)
                 .snr_db;
  }
  return out;
}

std::vector<double> LockEvaluator::clean_sfdr(std::span<const Key64> keys,
                                              double dbm_per_tone,
                                              par::ThreadPool& pool) {
  ANALOCK_SPAN("eval.sfdr");
  rf::ReceiverBatch batch(*standard_, process_, rng_, lane_configs(keys),
                          &tape_);
  const double center =
      standard_->f0_hz + rf::default_tone_offset_hz(*standard_);
  const double spacing = options_.two_tone_spacing_hz;
  const auto captures = batch.capture_modulator(
      rf::two_tone(*standard_, dbm_per_tone, spacing),
      options_.settle + options_.sfdr_fft_size, options_.settle, pool);
  const auto spectra = dsp::Periodogram::many_real(captures, keys.size(),
                                                   standard_->fs_hz());
  const double half_band = standard_->fs_hz() / (4.0 * standard_->osr);
  const double f0 = standard_->fs_hz() / 4.0;
  std::vector<double> out(keys.size());
  for (std::size_t l = 0; l < keys.size(); ++l) {
    // The paper reports fundamental-to-third-order distance.
    out[l] = dsp::measure_sfdr_two_tone(spectra[l], center - spacing / 2.0,
                                        center + spacing / 2.0,
                                        f0 - half_band, f0 + half_band)
                 .im3_db;
  }
  return out;
}

std::vector<double> LockEvaluator::snr_modulator_db(
    std::span<const Key64> keys, double input_dbm, par::ThreadPool& pool) {
  if (keys.empty()) return {};
  const std::size_t n_lanes = keys.size();
  trials_.snr_modulator += n_lanes;
  obs::count("eval.trials.snr_mod", n_lanes);
  auto values = clean_snr_modulator(keys, input_dbm, pool);
  for (double& v : values) v = faulted("eval.snr_modulator", v);
  return values;
}

std::vector<double> LockEvaluator::snr_receiver_db(
    std::span<const Key64> keys, double input_dbm, par::ThreadPool& pool) {
  if (keys.empty()) return {};
  const std::size_t n_lanes = keys.size();
  trials_.snr_receiver += n_lanes;
  obs::count("eval.trials.snr_rx", n_lanes);
  auto values = clean_snr_receiver(keys, input_dbm, pool);
  // An empty capture is not a measurement the injector sees.
  if (options_.baseband_points == 0) return values;
  for (double& v : values) v = faulted("eval.snr_receiver", v);
  return values;
}

std::vector<double> LockEvaluator::sfdr_db(std::span<const Key64> keys,
                                           double dbm_per_tone,
                                           par::ThreadPool& pool) {
  if (keys.empty()) return {};
  const std::size_t n_lanes = keys.size();
  trials_.sfdr += n_lanes;
  obs::count("eval.trials.sfdr", n_lanes);
  auto values = clean_sfdr(keys, dbm_per_tone, pool);
  for (double& v : values) v = faulted("eval.sfdr", v);
  return values;
}

std::vector<PerformanceReport> LockEvaluator::evaluate(
    std::span<const Key64> keys, par::ThreadPool& pool) {
  if (keys.empty()) return {};
  const std::size_t n_lanes = keys.size();
  trials_.snr_modulator += n_lanes;
  obs::count("eval.trials.snr_mod", n_lanes);
  trials_.snr_receiver += n_lanes;
  obs::count("eval.trials.snr_rx", n_lanes);
  trials_.sfdr += n_lanes;
  obs::count("eval.trials.sfdr", n_lanes);

  const auto mod = clean_snr_modulator(keys, options_.input_dbm, pool);
  const auto rx = clean_snr_receiver(keys, options_.input_dbm, pool);
  const auto sfdr = clean_sfdr(keys, options_.two_tone_dbm, pool);

  const rf::PerformanceSpec& spec = standard_->spec;
  std::vector<PerformanceReport> reports(n_lanes);
  // Fault replay in one-key call order: per key, modulator SNR then
  // receiver SNR then SFDR.
  for (std::size_t l = 0; l < n_lanes; ++l) {
    PerformanceReport& report = reports[l];
    report.snr_modulator_db = faulted("eval.snr_modulator", mod[l]);
    report.snr_receiver_db = options_.baseband_points == 0
                                 ? rx[l]
                                 : faulted("eval.snr_receiver", rx[l]);
    report.sfdr_db = faulted("eval.sfdr", sfdr[l]);
    report.snr_ok = report.snr_receiver_db >= spec.min_snr_db;
    report.sfdr_ok = report.sfdr_db >= spec.min_sfdr_db;
  }
  return reports;
}

double LockEvaluator::snr_modulator_db(const Key64& key) {
  return snr_modulator_db(key, options_.input_dbm);
}

double LockEvaluator::snr_modulator_db(const Key64& key, double input_dbm) {
  return snr_modulator_db(one(key), input_dbm, inline_pool())[0];
}

double LockEvaluator::snr_receiver_db(const Key64& key) {
  return snr_receiver_db(key, options_.input_dbm);
}

double LockEvaluator::snr_receiver_db(const Key64& key, double input_dbm) {
  return snr_receiver_db(one(key), input_dbm, inline_pool())[0];
}

double LockEvaluator::sfdr_db(const Key64& key) {
  return sfdr_db(key, options_.two_tone_dbm);
}

double LockEvaluator::sfdr_db(const Key64& key, double dbm_per_tone) {
  return sfdr_db(one(key), dbm_per_tone, inline_pool())[0];
}

PerformanceReport LockEvaluator::evaluate(const Key64& key) {
  return evaluate(one(key), inline_pool())[0];
}

bool LockEvaluator::unlocks(const Key64& key) {
  return snr_receiver_db(key) >= standard_->spec.min_snr_db;
}

}  // namespace analock::lock
