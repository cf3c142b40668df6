#include "probes.h"

#include <algorithm>
#include <chrono>
#include <complex>
#include <span>
#include <vector>

#include "dsp/spectrum.h"
#include "lock/batch_evaluator.h"
#include "lock/evaluator.h"
#include "lock/key_layout.h"
#include "par/thread_pool.h"
#include "rf/receiver.h"
#include "rf/receiver_batch.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace perfbench {

namespace {

namespace rf = analock::rf;
namespace dsp = analock::dsp;
namespace lock = analock::lock;
namespace sim = analock::sim;
namespace par = analock::par;

constexpr std::size_t kSettle = 2048;
constexpr std::size_t kModLen = kSettle + 8192;     // modulator-SNR trial
constexpr std::size_t kSfdrLen = kSettle + 16384;   // SFDR trial
constexpr std::size_t kBasebandPoints = 2048;
constexpr std::size_t kLanes = 32;
constexpr int kReps = 3;

/// Keeps results observable so the timed calls are not optimized away.
volatile double g_sink = 0.0;

/// Median wall time (seconds) of `reps` calls of `fn`.
template <class Fn>
double median_s(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    t.push_back(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

}  // namespace

LayerCosts run_layer_probes() {
  LayerCosts c;
  const rf::Standard& std3 = rf::standard_max_3ghz();
  const sim::ProcessVariation pv = sim::ProcessVariation::nominal();
  const sim::Rng rng(0x70726f6265ULL);
  rf::ReceiverConfig cfg{};
  cfg.digital_mode = std3.digital_mode;  // as LockEvaluator decodes keys
  const lock::Key64 key = lock::encode_key(cfg);
  const std::size_t rx_len = rf::receiver_input_length(kBasebandPoints);
  par::ThreadPool pool1(1);

  // sim: one Box-Muller draw.
  {
    constexpr int kDraws = 1 << 20;
    sim::Rng g(7);
    const double s = median_s(kReps, [&] {
      double acc = 0.0;
      for (int i = 0; i < kDraws; ++i) acc += g.gaussian();
      g_sink = acc;
    });
    c["sim.gaussian_ns"] = s * 1e9 / kDraws;
  }

  // rf: stimulus synthesis.
  std::vector<double> tone_rx;
  c["rf.tone_ns_per_sample"] =
      median_s(kReps, [&] { tone_rx = rf::make_test_tone(std3, -25.0, rx_len); }) *
      1e9 / static_cast<double>(rx_len);
  std::vector<double> two_tone;
  c["rf.two_tone_ns_per_sample"] =
      median_s(kReps,
               [&] { two_tone = rf::make_two_tone(std3, -30.0, kSfdrLen); }) *
      1e9 / static_cast<double>(kSfdrLen);

  // rf: single blocks over a receiver-length input.
  std::vector<double> amplified(rx_len);
  c["rf.vglna_ns_per_sample"] =
      median_s(kReps, [&] {
        rf::Vglna vglna(pv, rng.fork("probe-vglna"), std3.fs_hz());
        vglna.set_gain_code(cfg.vglna_gain);
        for (std::size_t i = 0; i < rx_len; ++i) {
          amplified[i] = vglna.process(tone_rx[i]);
        }
      }) *
      1e9 / static_cast<double>(rx_len);
  std::vector<double> bits(rx_len);
  c["rf.sigma_delta_ns_per_sample"] =
      median_s(kReps, [&] {
        rf::BpSigmaDelta mod(std3, pv, rng.fork("probe-modulator"));
        mod.configure(cfg.modulator);
        for (std::size_t i = 0; i < rx_len; ++i) bits[i] = mod.step(amplified[i]);
      }) *
      1e9 / static_cast<double>(rx_len);
  c["rf.backend_ns_per_sample"] =
      median_s(kReps, [&] {
        rf::DigitalBackend backend(std3.fs_hz(), std3.digital_mode);
        const rf::BasebandCapture bb = backend.process(bits);
        g_sink = static_cast<double>(bb.samples.size());
      }) *
      1e9 / static_cast<double>(rx_len);

  // rf: whole captures and the per-trial receiver build.
  c["rf.capture_receiver_ms"] =
      median_s(kReps, [&] {
        rf::Receiver rx(std3, pv, rng);
        rx.configure(cfg);
        const rf::ReceiverCapture cap = rx.capture_receiver(tone_rx, kSettle);
        g_sink = static_cast<double>(cap.baseband.samples.size());
      }) *
      1e3;
  const std::vector<double> tone_mod(tone_rx.begin(), tone_rx.begin() + kModLen);
  c["rf.capture_modulator_ms"] =
      median_s(kReps, [&] {
        rf::Receiver rx(std3, pv, rng);
        rx.configure(cfg);
        const rf::ModulatorCapture cap = rx.capture_modulator(tone_mod, kSettle);
        g_sink = cap.output.back();
      }) *
      1e3;
  {
    constexpr int kBuilds = 64;
    c["rf.receiver_build_us"] =
        median_s(kReps, [&] {
          for (int i = 0; i < kBuilds; ++i) {
            rf::Receiver rx(std3, pv, rng);
            rx.configure(cfg);
            g_sink = rx.fs_hz();
          }
        }) *
        1e6 / kBuilds;
  }

  // rf batch: 32 lanes (one brute-force screen batch) on one worker.
  std::vector<rf::ReceiverConfig> lane_cfgs(kLanes, cfg);
  for (std::size_t l = 0; l < kLanes; ++l) {
    lane_cfgs[l].modulator.gmin_bias = static_cast<std::uint32_t>(l);
  }
  c["rf.batch_build_ms"] =
      median_s(kReps, [&] {
        const rf::ReceiverBatch batch(std3, pv, rng, lane_cfgs);
        g_sink = static_cast<double>(batch.lanes());
      }) *
      1e3;
  rf::ReceiverBatch batch(std3, pv, rng, lane_cfgs);
  c["rf.batch_mod_lane_ns_per_sample"] =
      median_s(kReps, [&] {
        const auto out = batch.capture_modulator(tone_mod, kSettle, pool1);
        g_sink = out.back();
      }) *
      1e9 / static_cast<double>(kLanes * kModLen);
  c["rf.batch_rx_lane_ns_per_sample"] =
      median_s(2, [&] {
        const auto out =
            batch.capture_receiver(tone_rx, kSettle, kBasebandPoints, 16, pool1);
        g_sink = out.back().real();
      }) *
      1e9 / static_cast<double>(kLanes * rx_len);

  // dsp: periodograms at the three trial lengths, the batched real FFT,
  // and the two metrics.
  const std::span<const double> mod_bits(bits.data() + kSettle, 8192);
  std::vector<double> sfdr_bits(bits.begin() + kSettle,
                                bits.begin() + kSettle + 16384);
  std::vector<dsp::cplx> baseband(kBasebandPoints);
  for (std::size_t i = 0; i < kBasebandPoints; ++i) {
    baseband[i] = {tone_rx[i], tone_rx[i + 7]};
  }
  const double fs = std3.fs_hz();
  c["dsp.periodogram_8192_us"] =
      median_s(kReps, [&] {
        const dsp::Periodogram p(mod_bits, fs);
        g_sink = p.power()[1];
      }) *
      1e6;
  c["dsp.periodogram_16384_us"] =
      median_s(kReps, [&] {
        const dsp::Periodogram p(std::span<const double>(sfdr_bits), fs);
        g_sink = p.power()[1];
      }) *
      1e6;
  c["dsp.periodogram_c2048_us"] =
      median_s(kReps, [&] {
        const dsp::Periodogram p(std::span<const dsp::cplx>(baseband), fs / 64);
        g_sink = p.power()[1];
      }) *
      1e6;
  {
    std::vector<double> lanes(kLanes * 8192);
    for (std::size_t l = 0; l < kLanes; ++l) {
      std::copy(mod_bits.begin(), mod_bits.end(), lanes.begin() + l * 8192);
    }
    c["dsp.many_real_us_per_lane"] =
        median_s(kReps, [&] {
          const auto ps = dsp::Periodogram::many_real(lanes, kLanes, fs);
          g_sink = ps.back().power()[1];
        }) *
        1e6 / kLanes;
  }
  {
    const dsp::Periodogram p8(mod_bits, fs);
    const dsp::Periodogram p16(std::span<const double>(sfdr_bits), fs);
    const double f0 = fs / 4.0;
    const double f = std3.f0_hz + rf::default_tone_offset_hz(std3);
    constexpr int kCalls = 64;
    c["dsp.measure_snr_us"] =
        median_s(kReps, [&] {
          for (int i = 0; i < kCalls; ++i) {
            g_sink = dsp::measure_snr_osr(p8, f, f0, std3.osr).snr_db;
          }
        }) *
        1e6 / kCalls;
    const double half = fs / (4.0 * std3.osr);
    c["dsp.measure_sfdr_us"] =
        median_s(kReps, [&] {
          for (int i = 0; i < kCalls; ++i) {
            g_sink = dsp::measure_sfdr_two_tone(p16, f - 5e6, f + 5e6, f0 - half,
                                                f0 + half)
                         .im3_db;
          }
        }) *
        1e6 / kCalls;
  }

  // lock: one oracle trial of each kind, and a batched screen.
  {
    lock::LockEvaluator ev(std3, pv, rng);
    c["lock.snr_modulator_ms"] =
        median_s(kReps, [&] { g_sink = ev.snr_modulator_db(key); }) * 1e3;
    c["lock.snr_receiver_ms"] =
        median_s(kReps, [&] { g_sink = ev.snr_receiver_db(key); }) * 1e3;
    c["lock.sfdr_ms"] = median_s(kReps, [&] { g_sink = ev.sfdr_db(key); }) * 1e3;
    std::vector<lock::Key64> keys;
    for (const rf::ReceiverConfig& lc : lane_cfgs) keys.push_back(lock::encode_key(lc));
    lock::BatchEvaluator batch_ev(ev, &pool1);
    c["lock.batch_snr_modulator_ms_per_lane"] =
        median_s(kReps, [&] {
          const auto snr = batch_ev.snr_modulator_db(keys);
          g_sink = snr.back();
        }) *
        1e3 / kLanes;
    // Share of a receiver trial not spent in its rf and dsp parts.
    const double parts_ms =
        c["rf.receiver_build_us"] * 1e-3 +
        c["rf.tone_ns_per_sample"] * static_cast<double>(rx_len) * 1e-6 +
        c["rf.capture_receiver_ms"] + c["dsp.periodogram_c2048_us"] * 1e-3 +
        c["dsp.measure_snr_us"] * 1e-3;
    c["lock.orchestration_frac"] = 1.0 - parts_ms / c["lock.snr_receiver_ms"];
  }

  // par: dispatch cost of one 32-lane parallel_for with a trivial body.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    par::ThreadPool pool(threads);
    constexpr int kCalls = 2000;
    std::vector<double> out(kLanes);
    const double s = median_s(kReps, [&] {
      for (int i = 0; i < kCalls; ++i) {
        pool.parallel_for(kLanes, [&](std::size_t b, std::size_t e) {
          for (std::size_t l = b; l < e; ++l) out[l] += 1.0;
        });
      }
    });
    g_sink = out[0];
    c[threads == 1 ? "par.parallel_for_us_t1" : "par.parallel_for_us_t2"] =
        s * 1e6 / kCalls;
  }
  return c;
}

TrialModel trial_model(const LayerCosts& c) {
  const auto at = [&c](const char* k) { return c.at(k); };
  TrialModel m;
  m.step_ns = at("rf.vglna_ns_per_sample") + at("rf.sigma_delta_ns_per_sample");
  const double build_ms = at("rf.receiver_build_us") * 1e-3;
  const double rx_len =
      static_cast<double>(rf::receiver_input_length(kBasebandPoints));
  m.modulator_ms = build_ms +
                   (at("rf.tone_ns_per_sample") + m.step_ns) * kModLen * 1e-6 +
                   (at("dsp.periodogram_8192_us") + at("dsp.measure_snr_us")) *
                       1e-3;
  m.receiver_ms = build_ms +
                  (at("rf.tone_ns_per_sample") + m.step_ns +
                   at("rf.backend_ns_per_sample")) *
                      rx_len * 1e-6 +
                  (at("dsp.periodogram_c2048_us") + at("dsp.measure_snr_us")) *
                      1e-3;
  m.sfdr_ms = build_ms +
              (at("rf.two_tone_ns_per_sample") + m.step_ns) * kSfdrLen * 1e-6 +
              (at("dsp.periodogram_16384_us") + at("dsp.measure_sfdr_us")) *
                  1e-3;
  return m;
}

}  // namespace perfbench
