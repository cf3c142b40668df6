// Bit-exactness and infrastructure tests for the evaluation engine: FFT
// plans, the thread pool, batched periodograms, the LockEvaluator
// oracles (one-key calls and BatchEvaluator batches alike) and the
// rf::Receiver captures of one live chip against a reference that steps
// the scalar blocks sample by sample, and the noise tape each evaluator
// replays.
#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <stdexcept>
#include <vector>

#include "calib/oscillation_tuner.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "dsp/spectrum.h"
#include "fault/fault_injector.h"
#include "lock/batch_evaluator.h"
#include "lock/evaluator.h"
#include "lock/key_layout.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "rf/receiver.h"
#include "rf/receiver_batch.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace {

using namespace analock;
using lock::BatchEvaluator;
using lock::Key64;
using lock::LockEvaluator;

// ---------------------------------------------------------------------
// FFT plans
// ---------------------------------------------------------------------

std::vector<dsp::cplx> random_complex(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<dsp::cplx> x(n);
  for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
  return x;
}

TEST(FftPlan, MatchesFftInplaceExactly) {
  for (const std::size_t n : {2u, 8u, 64u, 1024u}) {
    auto a = random_complex(n, 7 + n);
    auto b = a;
    dsp::fft_inplace(a);
    dsp::FftPlan plan(n);
    plan.run(b);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(a[k].real(), b[k].real()) << "n=" << n << " k=" << k;
      EXPECT_EQ(a[k].imag(), b[k].imag()) << "n=" << n << " k=" << k;
    }
  }
}

TEST(RealFftPlan, MatchesComplexFft) {
  const std::size_t n = 512;
  sim::Rng rng(11);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian();

  std::vector<dsp::cplx> ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = {x[i], 0.0};
  dsp::fft_inplace(ref);

  dsp::RealFftPlan plan(n);
  std::vector<dsp::cplx> out(plan.bins());
  plan.run(x, out);
  for (std::size_t k = 0; k < plan.bins(); ++k) {
    EXPECT_NEAR(ref[k].real(), out[k].real(), 1e-9) << k;
    EXPECT_NEAR(ref[k].imag(), out[k].imag(), 1e-9) << k;
  }
}

TEST(RealFftPlan, RunManyMatchesPerLaneRuns) {
  const std::size_t n = 256, lanes = 5;
  sim::Rng rng(23);
  std::vector<double> signals(n * lanes);
  for (auto& v : signals) v = rng.gaussian();

  dsp::RealFftPlan plan(n);
  std::vector<dsp::cplx> batched(plan.bins() * lanes);
  plan.run_many(signals, batched, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<dsp::cplx> one(plan.bins());
    plan.run(std::span<const double>(signals).subspan(l * n, n), one);
    for (std::size_t k = 0; k < plan.bins(); ++k) {
      EXPECT_EQ(one[k], batched[l * plan.bins() + k]) << l << ":" << k;
    }
  }
}

// ---------------------------------------------------------------------
// Thread pool
// ---------------------------------------------------------------------

TEST(ThreadPool, CoversRangeExactlyOnce) {
  par::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  for (const std::size_t n : {0u, 1u, 3u, 4u, 17u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  par::ThreadPool pool(1);
  std::size_t calls = 0;
  pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPool, PropagatesExceptions) {
  par::ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t begin, std::size_t) {
                          if (begin == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool stays usable after an exception.
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 8);
}

// ---------------------------------------------------------------------
// Batched periodograms
// ---------------------------------------------------------------------

TEST(Periodogram, ManyRealMatchesPerLane) {
  const std::size_t n = 512, lanes = 3;
  sim::Rng rng(31);
  std::vector<double> signals(n * lanes);
  for (auto& v : signals) v = rng.gaussian();
  const auto batched = dsp::Periodogram::many_real(signals, lanes, 1.0e6);
  ASSERT_EQ(batched.size(), lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const dsp::Periodogram one(
        std::span<const double>(signals).subspan(l * n, n), 1.0e6);
    ASSERT_EQ(one.size(), batched[l].size());
    for (std::size_t k = 0; k < one.size(); ++k) {
      EXPECT_EQ(one.power()[k], batched[l].power()[k]) << l << ":" << k;
    }
  }
}

TEST(Periodogram, ManyComplexMatchesPerLane) {
  const std::size_t n = 256, lanes = 3;
  auto signals = random_complex(n * lanes, 37);
  const auto batched = dsp::Periodogram::many_complex(signals, lanes, 1.0e6);
  ASSERT_EQ(batched.size(), lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const dsp::Periodogram one(
        std::span<const dsp::cplx>(signals).subspan(l * n, n), 1.0e6);
    ASSERT_EQ(one.size(), batched[l].size());
    for (std::size_t k = 0; k < one.size(); ++k) {
      EXPECT_EQ(one.power()[k], batched[l].power()[k]) << l << ":" << k;
    }
  }
}

// ---------------------------------------------------------------------
// Oracle parity against the scalar reference
// ---------------------------------------------------------------------

/// The scalar analog chain: `rx`'s blocks stepped one sample at a time,
/// `Vglna::process` then `BpSigmaDelta::step`, from reset dynamic state.
/// Returns the outputs after the first `settle` and advances `rx`'s noise
/// streams as far as the blocks draw. Every rf::ReceiverBatch capture,
/// and so every rf::Receiver capture, is checked against this chain.
std::vector<double> scalar_modulator(rf::Receiver& rx,
                                     std::span<const double> rf_in,
                                     std::size_t settle) {
  rx.modulator().reset();
  std::vector<double> out;
  for (std::size_t i = 0; i < rf_in.size(); ++i) {
    const double y = rx.modulator().step(rx.vglna().process(rf_in[i]));
    if (i >= settle) out.push_back(y);
  }
  return out;
}

/// The scalar chain through a fresh digital backend: every baseband
/// sample after the first `settle_baseband`.
rf::BasebandCapture scalar_baseband(rf::Receiver& rx,
                                    std::span<const double> rf_in,
                                    std::size_t settle,
                                    std::size_t settle_baseband) {
  rf::DigitalBackend backend(rx.fs_hz(), rx.config().digital_mode);
  return backend.process(scalar_modulator(rx, rf_in, settle),
                         settle_baseband);
}

/// The one-key oracle bodies built on the scalar chain: a freshly seeded
/// receiver per measurement, its capture, a Periodogram, the metric, then
/// the fault injector. LockEvaluator steps its keys as rf::ReceiverBatch
/// lanes instead, and must reproduce these readings bit for bit.
class ReferenceOracle {
 public:
  ReferenceOracle(const rf::Standard& standard,
                  const sim::ProcessVariation& process,
                  const sim::Rng& chip_rng, lock::EvaluatorOptions options,
                  fault::FaultInjector* injector = nullptr)
      : standard_(&standard),
        process_(process),
        rng_(chip_rng.fork("lock-evaluator")),
        options_(options),
        injector_(injector) {}

  double snr_modulator_db(const Key64& key) {
    return snr_modulator_db(key, options_.input_dbm);
  }
  double snr_modulator_db(const Key64& key, double input_dbm) {
    rf::Receiver receiver = make_receiver(key);
    const double offset = rf::default_tone_offset_hz(*standard_);
    const auto rf_in = rf::make_test_tone(
        *standard_, input_dbm, options_.settle + options_.fft_size, offset);
    const auto output = scalar_modulator(receiver, rf_in, options_.settle);
    const dsp::Periodogram p(output, standard_->fs_hz());
    const auto snr = dsp::measure_snr_osr(p, standard_->f0_hz + offset,
                                          standard_->fs_hz() / 4.0,
                                          standard_->osr);
    return faulted("eval.snr_modulator", snr.snr_db);
  }

  double snr_receiver_db(const Key64& key) {
    return snr_receiver_db(key, options_.input_dbm);
  }
  double snr_receiver_db(const Key64& key, double input_dbm) {
    rf::Receiver receiver = make_receiver(key);
    const double offset = rf::default_tone_offset_hz(*standard_);
    const std::size_t n =
        rf::receiver_input_length(options_.baseband_points, options_.settle);
    const auto rf_in = rf::make_test_tone(*standard_, input_dbm, n, offset);
    auto capture = scalar_baseband(receiver, rf_in, options_.settle, 16);
    auto& bb = capture.samples;
    if (bb.size() > options_.baseband_points) {
      bb.resize(options_.baseband_points);
    }
    if (bb.size() < options_.baseband_points || bb.empty()) return -200.0;
    const dsp::Periodogram p(bb, capture.fs_hz);
    const double half_band = standard_->fs_hz() / (4.0 * standard_->osr);
    const auto snr = dsp::measure_snr(p, offset, -half_band, half_band);
    return faulted("eval.snr_receiver", snr.snr_db);
  }

  double sfdr_db(const Key64& key) {
    rf::Receiver receiver = make_receiver(key);
    const double center =
        standard_->f0_hz + rf::default_tone_offset_hz(*standard_);
    const double spacing = options_.two_tone_spacing_hz;
    const auto rf_in = rf::make_two_tone(
        *standard_, options_.two_tone_dbm,
        options_.settle + options_.sfdr_fft_size, spacing);
    const auto output = scalar_modulator(receiver, rf_in, options_.settle);
    const dsp::Periodogram p(output, standard_->fs_hz());
    const double half_band = standard_->fs_hz() / (4.0 * standard_->osr);
    const double f0 = standard_->fs_hz() / 4.0;
    const auto sfdr = dsp::measure_sfdr_two_tone(
        p, center - spacing / 2.0, center + spacing / 2.0, f0 - half_band,
        f0 + half_band);
    return faulted("eval.sfdr", sfdr.im3_db);
  }

  lock::PerformanceReport evaluate(const Key64& key) {
    lock::PerformanceReport report;
    report.snr_modulator_db = snr_modulator_db(key);
    report.snr_receiver_db = snr_receiver_db(key);
    report.sfdr_db = sfdr_db(key);
    report.snr_ok = report.snr_receiver_db >= standard_->spec.min_snr_db;
    report.sfdr_ok = report.sfdr_db >= standard_->spec.min_sfdr_db;
    return report;
  }

 private:
  rf::Receiver make_receiver(const Key64& key) {
    rf::Receiver receiver(*standard_, process_, rng_);
    const Key64 applied =
        injector_ != nullptr ? Key64{injector_->perturb_word(key.bits())}
                             : key;
    receiver.configure(lock::decode_key(applied, standard_->digital_mode));
    return receiver;
  }

  double faulted(const char* site, double clean_db) {
    if (injector_ == nullptr) return clean_db;
    return injector_->perturb_measurement(site, clean_db);
  }

  const rf::Standard* standard_;
  sim::ProcessVariation process_;
  sim::Rng rng_;
  lock::EvaluatorOptions options_;
  fault::FaultInjector* injector_;
};

/// Shortened captures keep the parity sweeps fast; one test below runs
/// the full default lengths.
lock::EvaluatorOptions fast_options() {
  lock::EvaluatorOptions opt;
  opt.fft_size = 1024;
  opt.sfdr_fft_size = 2048;
  opt.baseband_points = 256;
  opt.settle = 256;
  return opt;
}

/// A mixed bag of keys: nominal-ish, structured corruptions (including
/// the paper's deceptive un-clocked-comparator key), and random words.
std::vector<Key64> test_keys(std::uint64_t seed, std::size_t n_random) {
  using L = lock::KeyLayout;
  sim::Rng rng(seed);
  const Key64 base = Key64::random(rng);
  std::vector<Key64> keys = {
      Key64{},
      base,
      base.with_bit(L::kCompClockEnable, false),
      base.with_bit(L::kFeedbackEnable, false),
      base.with_field(L::kTestMux, 3),
  };
  for (std::size_t i = 0; i < n_random; ++i) {
    keys.push_back(Key64::random(rng));
  }
  return keys;
}

void expect_reports_equal(const lock::PerformanceReport& ref,
                          const lock::PerformanceReport& got,
                          std::size_t i) {
  EXPECT_EQ(ref.snr_modulator_db, got.snr_modulator_db) << i;
  EXPECT_EQ(ref.snr_receiver_db, got.snr_receiver_db) << i;
  EXPECT_EQ(ref.sfdr_db, got.sfdr_db) << i;
  EXPECT_EQ(ref.snr_ok, got.snr_ok) << i;
  EXPECT_EQ(ref.sfdr_ok, got.sfdr_ok) << i;
}

TEST(BatchEvaluator, EvaluateMatchesScalarBitExactly) {
  const auto keys = test_keys(101, 3);
  sim::Rng chip_rng(404);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 1);
  const rf::Standard& standard = rf::standard_max_3ghz();

  ReferenceOracle ref(standard, pv, chip_rng.fork("chip"), fast_options());
  LockEvaluator ev(standard, pv, chip_rng.fork("chip"), fast_options());
  BatchEvaluator batch(ev);

  const auto reports = batch.evaluate_batch(keys);
  ASSERT_EQ(reports.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto expected = ref.evaluate(keys[i]);
    expect_reports_equal(expected, reports[i], i);
    expect_reports_equal(expected, ev.evaluate(keys[i]), i);
  }
}

TEST(BatchEvaluator, MatchesScalarAcrossCornersAndStandards) {
  const auto keys = test_keys(202, 2);
  const rf::Standard* standards[] = {&rf::standard_bluetooth(),
                                     &rf::standard_wifi_80211b()};
  for (const int corner : {0, 2}) {
    sim::Rng chip_rng(1000 + static_cast<std::uint64_t>(corner));
    const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, corner);
    for (const rf::Standard* standard : standards) {
      ReferenceOracle ref(*standard, pv, chip_rng.fork("chip"),
                          fast_options());
      LockEvaluator ev(*standard, pv, chip_rng.fork("chip"), fast_options());
      BatchEvaluator batch(ev);
      const auto rx = batch.snr_receiver_db(keys);
      const auto mod = batch.snr_modulator_db(keys);
      const auto sfdr = batch.sfdr_db(keys);
      ASSERT_EQ(rx.size(), keys.size());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(ref.snr_receiver_db(keys[i]), rx[i])
            << standard->name << " corner " << corner << " key " << i;
        EXPECT_EQ(ref.snr_modulator_db(keys[i]), mod[i])
            << standard->name << " corner " << corner << " key " << i;
        EXPECT_EQ(ref.sfdr_db(keys[i]), sfdr[i])
            << standard->name << " corner " << corner << " key " << i;
      }
    }
  }
}

TEST(BatchEvaluator, DefaultOptionsMatchScalar) {
  // Full paper-length captures (8192-pt FFT, 2048 baseband points), and
  // an off-reference input power through the one-key overloads.
  const auto keys = test_keys(303, 0);
  const std::span<const Key64> two(keys.data(), 2);
  sim::Rng chip_rng(42);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const rf::Standard& standard = rf::standard_max_3ghz();
  ReferenceOracle ref(standard, pv, chip_rng.fork("chip"), {});
  LockEvaluator ev(standard, pv, chip_rng.fork("chip"));
  BatchEvaluator batch(ev);
  const auto rx = batch.snr_receiver_db(two);
  for (std::size_t i = 0; i < two.size(); ++i) {
    EXPECT_EQ(ref.snr_receiver_db(two[i]), rx[i]) << i;
  }
  EXPECT_EQ(ref.snr_receiver_db(keys[1], -40.0),
            ev.snr_receiver_db(keys[1], -40.0));
  EXPECT_EQ(ref.snr_modulator_db(keys[1], -40.0),
            ev.snr_modulator_db(keys[1], -40.0));
}

TEST(BatchEvaluator, TransientsOffTheChunkGridMatchScalar) {
  // The batch steps its lanes in 4096-sample windows; these settle and
  // capture lengths put every transient's end on, just past, or short of
  // a window edge.
  struct Lengths {
    std::size_t settle, fft, sfdr_fft, baseband;
  };
  const Lengths cases[] = {
      {3072, 1024, 2048, 64},   // modulator transient exactly one window
      {1000, 8192, 4096, 128},  // 9192 / 5096 / 10280 samples
      {1, 512, 1024, 32},       // shorter than one window
  };
  const auto keys = test_keys(808, 1);
  sim::Rng chip_rng(2024);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const rf::Standard& standard = rf::standard_max_3ghz();
  for (const Lengths& len : cases) {
    lock::EvaluatorOptions opt;
    opt.settle = len.settle;
    opt.fft_size = len.fft;
    opt.sfdr_fft_size = len.sfdr_fft;
    opt.baseband_points = len.baseband;
    ReferenceOracle ref(standard, pv, chip_rng.fork("chip"), opt);
    LockEvaluator ev(standard, pv, chip_rng.fork("chip"), opt);
    BatchEvaluator batch(ev);
    const auto reports = batch.evaluate_batch(keys);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "settle " << len.settle);
      expect_reports_equal(ref.evaluate(keys[i]), reports[i], i);
    }
  }
}

TEST(BatchEvaluator, ReceiverEarlyExitMatchesScalar) {
  // A stimulus several windows longer than the baseband capture needs:
  // each lane stops once its last baseband sample is written, and the
  // batch stops stepping once every lane has.
  sim::Rng chip_rng(99);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const rf::Standard& standard = rf::standard_max_3ghz();
  const sim::Rng rng = chip_rng.fork("receiver");
  const std::size_t settle = 300, points = 64, settle_bb = 16;
  const std::size_t n = rf::receiver_input_length(points, settle, settle_bb);
  const auto rf_in = rf::make_test_tone(standard, -25.0, n + 10000);
  std::vector<rf::ReceiverConfig> configs;
  for (const Key64& key : test_keys(909, 2)) {
    configs.push_back(lock::decode_key(key, standard.digital_mode));
  }
  rf::ReceiverBatch batch(standard, pv, rng, configs);
  par::ThreadPool pool(2);
  const auto bb = batch.capture_receiver(rf_in, settle, points, settle_bb,
                                         pool);
  ASSERT_EQ(bb.size(), configs.size() * points);
  for (std::size_t l = 0; l < configs.size(); ++l) {
    rf::Receiver receiver(standard, pv, rng);
    receiver.configure(configs[l]);
    const auto capture = scalar_baseband(receiver, rf_in, settle, settle_bb);
    ASSERT_GE(capture.samples.size(), points);
    for (std::size_t k = 0; k < points; ++k) {
      EXPECT_EQ(capture.samples[k], bb[l * points + k])
          << "lane " << l << " sample " << k;
    }
  }

  // An empty baseband capture exits before any metrology: it reads
  // "locked hard", is still charged as a trial, and never reaches the
  // injector.
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.meas_spike_prob = 1.0;
  fault::FaultInjector ref_injector(plan);
  fault::FaultInjector injector(plan);
  lock::EvaluatorOptions opt = fast_options();
  opt.baseband_points = 0;
  ReferenceOracle ref(standard, pv, chip_rng.fork("chip"), opt,
                      &ref_injector);
  LockEvaluator ev(standard, pv, chip_rng.fork("chip"), opt);
  ev.set_fault_injector(&injector);
  const auto keys = test_keys(910, 0);
  const auto rx = BatchEvaluator(ev).snr_receiver_db(keys);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(ref.snr_receiver_db(keys[i]), rx[i]) << i;
    EXPECT_EQ(rx[i], -200.0) << i;
  }
  EXPECT_EQ(ev.snr_receiver_db(keys[0]), -200.0);
  EXPECT_EQ(ev.trial_counts().snr_receiver, keys.size() + 1);
  EXPECT_EQ(injector.counts().meas_spikes, 0u);
  EXPECT_EQ(ref_injector.counts().meas_spikes, 0u);
}

TEST(BatchEvaluator, ResultsIndependentOfThreadCount) {
  const auto keys = test_keys(505, 4);
  sim::Rng chip_rng(77);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const rf::Standard& standard = rf::standard_max_3ghz();

  par::ThreadPool pool1(1);
  par::ThreadPool pool3(3);
  ReferenceOracle ref(standard, pv, chip_rng.fork("chip"), fast_options());
  LockEvaluator ev1(standard, pv, chip_rng.fork("chip"), fast_options());
  LockEvaluator ev3(standard, pv, chip_rng.fork("chip"), fast_options());
  BatchEvaluator batch1(ev1, &pool1);
  BatchEvaluator batch3(ev3, &pool3);

  const auto a = batch1.evaluate_batch(keys);
  const auto b = batch3.evaluate_batch(keys);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto expected = ref.evaluate(keys[i]);
    expect_reports_equal(expected, a[i], i);
    expect_reports_equal(expected, b[i], i);
  }
}

TEST(BatchEvaluator, FaultInjectorParity) {
  // An active injector perturbs every oracle reading and sticks register
  // bits. N one-key calls and one N-key call must both replay the
  // reference's perturbation stream: same readings, same injected-fault
  // tallies, same trial counts.
  fault::FaultPlan plan;
  plan.seed = 99;
  plan.meas_spike_prob = 0.4;
  plan.meas_dropout_prob = 0.1;
  plan.stuck_at0_bits = 2;
  plan.stuck_at1_bits = 1;

  const auto keys = test_keys(606, 3);
  sim::Rng chip_rng(314);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const rf::Standard& standard = rf::standard_max_3ghz();

  fault::FaultInjector ref_injector(plan);
  fault::FaultInjector one_injector(plan);
  fault::FaultInjector batch_injector(plan);
  ReferenceOracle ref(standard, pv, chip_rng.fork("chip"), fast_options(),
                      &ref_injector);
  LockEvaluator one(standard, pv, chip_rng.fork("chip"), fast_options());
  LockEvaluator many(standard, pv, chip_rng.fork("chip"), fast_options());
  one.set_fault_injector(&one_injector);
  many.set_fault_injector(&batch_injector);
  BatchEvaluator batch(many);

  const auto reports = batch.evaluate_batch(keys);
  const auto rx = batch.snr_receiver_db(keys);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto expected = ref.evaluate(keys[i]);
    expect_reports_equal(expected, one.evaluate(keys[i]), i);
    expect_reports_equal(expected, reports[i], i);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const double expected = ref.snr_receiver_db(keys[i]);
    EXPECT_EQ(expected, one.snr_receiver_db(keys[i])) << i;
    EXPECT_EQ(expected, rx[i]) << i;
  }
  for (const fault::FaultInjector* injector : {&one_injector,
                                               &batch_injector}) {
    EXPECT_EQ(ref_injector.counts().meas_spikes,
              injector->counts().meas_spikes);
    EXPECT_EQ(ref_injector.counts().meas_dropouts,
              injector->counts().meas_dropouts);
    EXPECT_EQ(ref_injector.counts().words_stuck,
              injector->counts().words_stuck);
  }
  EXPECT_GT(ref_injector.counts().meas_spikes, 0u);
  EXPECT_EQ(one.trial_counts().snr_modulator,
            many.trial_counts().snr_modulator);
  EXPECT_EQ(one.trial_counts().snr_receiver,
            many.trial_counts().snr_receiver);
  EXPECT_EQ(one.trial_counts().sfdr, many.trial_counts().sfdr);
}

TEST(BatchEvaluator, TrialCountsMatchScalar) {
  const auto keys = test_keys(707, 2);
  sim::Rng chip_rng(55);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  LockEvaluator one(rf::standard_max_3ghz(), pv, chip_rng.fork("chip"),
                    fast_options());
  LockEvaluator many(rf::standard_max_3ghz(), pv, chip_rng.fork("chip"),
                     fast_options());
  BatchEvaluator batch(many);

  for (const Key64& key : keys) (void)one.evaluate(key);
  (void)batch.evaluate_batch(keys);
  EXPECT_EQ(one.trial_counts().snr_modulator, keys.size());
  EXPECT_EQ(one.trial_counts().snr_modulator,
            many.trial_counts().snr_modulator);
  EXPECT_EQ(one.trial_counts().snr_receiver,
            many.trial_counts().snr_receiver);
  EXPECT_EQ(one.trial_counts().sfdr, many.trial_counts().sfdr);
  EXPECT_EQ(one.trials(), many.trials());

  (void)batch.snr_receiver_db(keys);
  EXPECT_EQ(many.trial_counts().snr_receiver, 2 * keys.size());
  EXPECT_TRUE(batch.snr_receiver_db({}).empty());
  EXPECT_EQ(many.trial_counts().snr_receiver, 2 * keys.size());
}

// ---------------------------------------------------------------------
// Live one-lane captures of one chip
// ---------------------------------------------------------------------

TEST(ReceiverCapture, LiveStreamsContinueAcrossMeasurements) {
  // One chip makes the oscillation-mode measurements of a tuner walk,
  // then mission-mode captures, then test-mux, output-buffer and Gmin
  // toggles, then oscillation mode again. Every capture must equal the
  // scalar chain stepped on an identically seeded receiver, so each noise
  // stream has to continue exactly where the previous measurement left
  // it, including the streams a configuration does not read.
  sim::Rng chip_rng(2718);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const rf::Standard& standard = rf::standard_max_3ghz();
  const sim::Rng rng = chip_rng.fork("calibration-dut");
  rf::Receiver chip(standard, pv, rng);
  rf::Receiver ref(standard, pv, rng);

  auto oscillation = [&](std::uint32_t coarse, std::uint32_t fine,
                         std::uint32_t q) {
    rf::ReceiverConfig cfg = chip.config();
    cfg.modulator = calib::oscillation_mode_config(coarse, fine, q);
    return cfg;
  };
  rf::ReceiverConfig mission;
  mission.digital_mode = standard.digital_mode;
  mission.vglna_gain = 10;
  mission.modulator.cap_coarse = 96;
  mission.modulator.cap_fine = 140;
  mission.modulator.q_enh = 20;

  auto expect_modulator = [&](const rf::ReceiverConfig& cfg,
                              std::span<const double> in,
                              std::size_t settle, const char* what) {
    SCOPED_TRACE(what);
    chip.configure(cfg);
    ref.configure(cfg);
    const auto capture = chip.capture_modulator(in, settle);
    EXPECT_EQ(capture.fs_hz, standard.fs_hz());
    EXPECT_EQ(capture.output, scalar_modulator(ref, in, settle));
  };

  // Settle + measure spans windows and ends off the 4096-sample grid.
  const std::vector<double> zeros(4096 + 6000, 0.0);
  expect_modulator(oscillation(128, 128, 63), zeros, 4096, "coarse 128");
  expect_modulator(oscillation(64, 128, 63), zeros, 4096, "coarse 64");
  expect_modulator(oscillation(96, 128, 63), zeros, 4096, "coarse 96");
  expect_modulator(oscillation(96, 60, 63), zeros, 4096, "fine 60");
  expect_modulator(oscillation(96, 60, 40), zeros, 2000, "q 40");

  const auto tone = rf::make_test_tone(standard, -25.0, 300 + 5000);
  expect_modulator(mission, tone, 300, "mission");
  {
    SCOPED_TRACE("mission receiver");
    // 123 decimation blocks, then a 40-sample tail across the 8192-sample
    // window edge: it yields no baseband sample, but the scalar chain
    // still draws noise for it.
    const auto rx_in = rf::make_test_tone(standard, -25.0, 300 + 64 * 123 + 40);
    chip.configure(mission);
    ref.configure(mission);
    const auto capture = chip.capture_receiver(rx_in, 300, 16);
    const auto expected = scalar_baseband(ref, rx_in, 300, 16);
    EXPECT_EQ(capture.baseband.fs_hz, expected.fs_hz);
    ASSERT_EQ(capture.baseband.samples.size(), 107u);
    EXPECT_EQ(capture.baseband.samples, expected.samples);
  }
  for (const std::uint32_t mux : {1u, 2u, 3u}) {
    rf::ReceiverConfig cfg = mission;
    cfg.modulator.test_mux = mux;
    expect_modulator(cfg, tone, 300, "test mux");
  }
  rf::ReceiverConfig buffered = mission;
  buffered.modulator.buffer_in_path = true;
  expect_modulator(buffered, tone, 300, "buffer in path");
  buffered.modulator.gmin_enable = false;
  expect_modulator(buffered, tone, 300, "Gmin off");
  expect_modulator(mission, tone, 300, "mission again");
  expect_modulator(oscillation(96, 60, 63), zeros, 4096, "oscillation again");
}

TEST(ReceiverCapture, OscillationMeasurementDrawsSevenStreams) {
  // Oscillation mode reads every stream but Gmin's, one deviate per
  // stimulus sample each, and there is no tape to replay.
  obs::Registry& reg = obs::registry();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  obs::Counter& drawn = reg.counter("rf.noise.drawn");
  obs::Counter& replayed = reg.counter("rf.noise.replayed");
  sim::Rng chip_rng(5);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  rf::Receiver chip(rf::standard_max_3ghz(), pv,
                    chip_rng.fork("calibration-dut"));
  calib::OscillationTuner tuner(chip);
  const calib::OscillationTuner::Options options;
  const std::uint64_t d0 = drawn.value(), r0 = replayed.value();
  (void)tuner.measure(100, 128);
  EXPECT_EQ(drawn.value() - d0, 7 * (options.settle + options.measure));
  EXPECT_EQ(replayed.value() - r0, 0u);
  reg.set_enabled(was_enabled);
}

// ---------------------------------------------------------------------
// Noise tape replay
// ---------------------------------------------------------------------

using L = lock::KeyLayout;

/// Keys that read every combination of the lazily taped streams: Gmin
/// and the output buffer, each on or off.
std::vector<Key64> stream_switching_keys(std::uint64_t seed) {
  const Key64 base = test_keys(seed, 0)[1];
  std::vector<Key64> keys;
  for (const bool gmin : {false, true}) {
    for (const bool buffer : {false, true}) {
      keys.push_back(base.with_bit(L::kGminEnable, gmin)
                         .with_bit(L::kBufferInPath, buffer)
                         .with_field(L::kTestMux, 0));
    }
  }
  return keys;
}

std::vector<rf::ReceiverConfig> configs_of(std::span<const Key64> keys,
                                           const rf::Standard& standard) {
  std::vector<rf::ReceiverConfig> configs;
  for (const Key64& key : keys) {
    configs.push_back(lock::decode_key(key, standard.digital_mode));
  }
  return configs;
}

TEST(NoiseTape, ReplayMatchesScalarAroundTheTapeEnd) {
  // Transients that end one sample short of, exactly at and one sample
  // past the tape, for a tape that ends on a window edge (4096) and one
  // that ends mid-window (5000). Every capture runs twice on one tape —
  // the first call draws it, the second replays it — and both must equal
  // the scalar receiver and a batch without a tape.
  sim::Rng chip_rng(4242);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const rf::Standard& standard = rf::standard_max_3ghz();
  const sim::Rng rng = chip_rng.fork("receiver");
  const auto keys = stream_switching_keys(4243);
  const auto configs = configs_of(keys, standard);
  const std::size_t settle = 300;
  par::ThreadPool pool(2);
  for (const std::size_t tape_len : {4096u, 5000u}) {
    for (const std::size_t n : {tape_len - 1, tape_len, tape_len + 1}) {
      SCOPED_TRACE(testing::Message() << "tape " << tape_len << " n " << n);
      const auto rf_in = rf::make_test_tone(standard, -25.0, n);
      rf::NoiseTape tape(rng, tape_len);
      rf::ReceiverBatch untaped(standard, pv, rng, configs);
      const auto expected = untaped.capture_modulator(rf_in, settle, pool);
      for (int call = 0; call < 2; ++call) {
        rf::ReceiverBatch batch(standard, pv, rng, configs, &tape);
        EXPECT_EQ(expected, batch.capture_modulator(rf_in, settle, pool))
            << "call " << call;
      }
      for (std::size_t l = 0; l < configs.size(); ++l) {
        rf::Receiver receiver(standard, pv, rng);
        receiver.configure(configs[l]);
        const auto output = scalar_modulator(receiver, rf_in, settle);
        ASSERT_EQ(output.size(), n - settle);
        for (std::size_t k = 0; k < n - settle; ++k) {
          ASSERT_EQ(output[k], expected[l * (n - settle) + k])
              << "lane " << l << " sample " << k;
        }
      }
    }
  }
}

TEST(NoiseTape, StreamedReceiverCaptureMatchesScalarPastTheTape) {
  // A receiver capture runs several windows past a mid-window tape end,
  // with its stimulus streamed from a tone generator.
  sim::Rng chip_rng(77);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 1);
  const rf::Standard& standard = rf::standard_bluetooth();
  const sim::Rng rng = chip_rng.fork("receiver");
  const std::size_t settle = 500, points = 128, settle_bb = 16;
  const std::size_t n = rf::receiver_input_length(points, settle, settle_bb);
  const auto configs = configs_of(stream_switching_keys(78), standard);
  const auto tone = rf::test_tone(standard, -30.0);
  const auto rf_in = rf::make_test_tone(standard, -30.0, n);
  rf::NoiseTape tape(rng, 5000);
  par::ThreadPool pool(3);
  for (int call = 0; call < 2; ++call) {
    rf::ReceiverBatch batch(standard, pv, rng, configs, &tape);
    const auto bb =
        batch.capture_receiver(tone, n, settle, points, settle_bb, pool);
    for (std::size_t l = 0; l < configs.size(); ++l) {
      rf::Receiver receiver(standard, pv, rng);
      receiver.configure(configs[l]);
      const auto capture =
          scalar_baseband(receiver, rf_in, settle, settle_bb);
      ASSERT_GE(capture.samples.size(), points);
      for (std::size_t k = 0; k < points; ++k) {
        ASSERT_EQ(capture.samples[k], bb[l * points + k])
            << "call " << call << " lane " << l << " sample " << k;
      }
    }
  }
}

/// Options whose tape (settle + fft_size = 5096) ends mid-window, with
/// SFDR and receiver transients that run past it.
lock::EvaluatorOptions mid_window_tape_options() {
  lock::EvaluatorOptions opt;
  opt.settle = 1000;
  opt.fft_size = 4096;
  opt.sfdr_fft_size = 8192;
  opt.baseband_points = 64;
  return opt;
}

TEST(NoiseTape, InterleavedOraclesMatchReferenceAndFreshEvaluators) {
  // One evaluator serves receiver, modulator and SFDR trials in turn, one
  // key and many keys at a time, and its keys switch Gmin and the output
  // buffer on and off, so streams join the tape between calls. Every
  // reading equals the scalar reference and a fresh evaluator's first
  // call.
  sim::Rng chip_rng(8080);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const rf::Standard& standard = rf::standard_max_3ghz();
  const lock::EvaluatorOptions opt = mid_window_tape_options();
  const sim::Rng chip = chip_rng.fork("chip");
  ReferenceOracle ref(standard, pv, chip, opt);
  LockEvaluator ev(standard, pv, chip, opt);
  par::ThreadPool pool(2);
  auto fresh = [&] { return LockEvaluator(standard, pv, chip, opt); };

  const auto keys = stream_switching_keys(8081);
  for (const Key64& key : keys) {
    EXPECT_EQ(ref.snr_receiver_db(key), ev.snr_receiver_db(key));
    EXPECT_EQ(fresh().snr_receiver_db(key), ev.snr_receiver_db(key));
    EXPECT_EQ(ref.snr_modulator_db(key), ev.snr_modulator_db(key));
    EXPECT_EQ(fresh().snr_modulator_db(key), ev.snr_modulator_db(key));
    EXPECT_EQ(ref.sfdr_db(key), ev.sfdr_db(key));
    EXPECT_EQ(fresh().sfdr_db(key), ev.sfdr_db(key));
  }
  const auto rx = ev.snr_receiver_db(keys, opt.input_dbm, pool);
  const auto mod = ev.snr_modulator_db(keys, opt.input_dbm, pool);
  const auto sfdr = ev.sfdr_db(keys, opt.two_tone_dbm, pool);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(ref.snr_receiver_db(keys[i]), rx[i]) << i;
    EXPECT_EQ(ref.snr_modulator_db(keys[i]), mod[i]) << i;
    EXPECT_EQ(ref.sfdr_db(keys[i]), sfdr[i]) << i;
  }
  // A fresh evaluator whose first call is a many-key batch.
  LockEvaluator batch_first = fresh();
  const auto reports = batch_first.evaluate(keys, pool);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    expect_reports_equal(ref.evaluate(keys[i]), reports[i], i);
  }
}

TEST(NoiseTape, FaultInjectorParityAcrossReplays) {
  // Stuck-at bits decide per call which streams a key needs; readings
  // and the injector's tallies must follow the reference through
  // repeated, interleaved calls.
  fault::FaultPlan plan;
  plan.seed = 2718;
  plan.meas_spike_prob = 0.3;
  plan.meas_dropout_prob = 0.1;
  plan.stuck_at0_bits = 3;
  plan.stuck_at1_bits = 2;
  sim::Rng chip_rng(31337);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  const rf::Standard& standard = rf::standard_max_3ghz();
  const lock::EvaluatorOptions opt = mid_window_tape_options();
  fault::FaultInjector ref_injector(plan);
  fault::FaultInjector injector(plan);
  ReferenceOracle ref(standard, pv, chip_rng.fork("chip"), opt,
                      &ref_injector);
  LockEvaluator ev(standard, pv, chip_rng.fork("chip"), opt);
  ev.set_fault_injector(&injector);
  const auto keys = stream_switching_keys(31338);
  for (int round = 0; round < 2; ++round) {
    for (const Key64& key : keys) {
      EXPECT_EQ(ref.snr_modulator_db(key), ev.snr_modulator_db(key));
      expect_reports_equal(ref.evaluate(key), ev.evaluate(key), round);
      EXPECT_EQ(ref.sfdr_db(key), ev.sfdr_db(key));
    }
  }
  EXPECT_EQ(ref_injector.counts().meas_spikes, injector.counts().meas_spikes);
  EXPECT_EQ(ref_injector.counts().meas_dropouts,
            injector.counts().meas_dropouts);
  EXPECT_EQ(ref_injector.counts().words_stuck, injector.counts().words_stuck);
  EXPECT_GT(injector.counts().meas_spikes, 0u);
}

TEST(NoiseTape, WorkCountersForOneKey) {
  // Default options: the tape holds settle + fft_size = 10240 deviates
  // per stream. A key with Gmin on and the output buffer off reads seven
  // of the eight streams. Receiver (134,208 samples) and SFDR (18,432)
  // trials replay the tape, then draw the rest of each stream.
  obs::Registry& reg = obs::registry();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  obs::Counter& drawn = reg.counter("rf.noise.drawn");
  obs::Counter& replayed = reg.counter("rf.noise.replayed");
  struct Delta {
    std::uint64_t drawn, replayed;
  };
  auto measure = [&](auto&& trial) {
    const std::uint64_t d0 = drawn.value(), r0 = replayed.value();
    (void)trial();
    return Delta{drawn.value() - d0, replayed.value() - r0};
  };

  sim::Rng chip_rng(12);
  const auto pv = sim::ProcessVariation::monte_carlo(chip_rng, 0);
  LockEvaluator ev(rf::standard_max_3ghz(), pv, chip_rng.fork("chip"));
  const Key64 key = test_keys(13, 0)[1]
                        .with_bit(L::kGminEnable, true)
                        .with_bit(L::kBufferInPath, false);
  constexpr std::uint64_t kStreams = 7;
  constexpr std::uint64_t kTape = 2048 + 8192;

  const Delta mod1 = measure([&] { return ev.snr_modulator_db(key); });
  EXPECT_EQ(mod1.drawn, kStreams * kTape);
  EXPECT_EQ(mod1.replayed, kStreams * kTape);
  const Delta mod2 = measure([&] { return ev.snr_modulator_db(key); });
  EXPECT_EQ(mod2.drawn, 0u);
  EXPECT_EQ(mod2.replayed, kStreams * kTape);
  const Delta rx = measure([&] { return ev.snr_receiver_db(key); });
  EXPECT_EQ(rx.drawn, kStreams * (134208 - kTape));
  EXPECT_EQ(rx.replayed, kStreams * kTape);
  const Delta sfdr = measure([&] { return ev.sfdr_db(key); });
  EXPECT_EQ(sfdr.drawn, kStreams * (18432 - kTape));
  EXPECT_EQ(sfdr.replayed, kStreams * kTape);
  reg.set_enabled(was_enabled);
}

}  // namespace
