// analock repository benchmark.
//
//   perfbench --workload <calibrate|spec_sweep|attack_screen|verify_src>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>] [--git-sha <sha>] [--src-digest <hex>]
//
// Each workload is a closed loop (one job at a time; the next starts when
// the previous returns) driven through the public API of the library
// modules. Every input is generated from --seed. The run first sets up
// three times (set-up time is the median), then runs jobs for --seconds
// (and always at least the digest prefix of jobs), checks every output,
// and prints a human-readable report followed by one JSON result line:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// untraced loop, then a traced loop that records spans around each
// library call, then the per-layer cost probes, and reports the
// per-layer metrics; spans are written to --spans at exit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/engine.h"
#include "analysis/sarif.h"
#include "attack/brute_force.h"
#include "calib/calibrator.h"
#include "corpus.h"
#include "lock/evaluator.h"
#include "lock/key_layout.h"
#include "obs/prof/perf_counters.h"
#include "par/thread_pool.h"
#include "probes.h"
#include "rf/receiver.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"
#include "trace.h"

#ifndef PERFBENCH_CXX_ID
#define PERFBENCH_CXX_ID "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

namespace an = analock::analysis;
namespace attack = analock::attack;
namespace calib = analock::calib;
namespace lock = analock::lock;
namespace rf = analock::rf;
namespace sim = analock::sim;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// FNV-1a over the bit patterns of every result a job produces.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Deterministic work a job did. Trial counts come from the library's
/// own counters; sample, FFT-point and lane counts are computed by the
/// benchmark from the trial counts and the public option defaults.
struct Work {
  std::uint64_t trials = 0;  ///< oracle trials charged
  std::uint64_t mod = 0, rx = 0, sfdr = 0;  ///< scalar trials by kind
  std::uint64_t batch_mod_lanes = 0, batch_rx_lanes = 0;
  std::uint64_t osc = 0, osc_fine = 0, qtune = 0, bias = 0, final3 = 0;
  std::uint64_t samples = 0, fft_points = 0, lanes = 0;
  std::uint64_t tus = 0, source_bytes = 0, findings = 0;

  void add(const Work& o) {
    trials += o.trials;
    mod += o.mod;
    rx += o.rx;
    sfdr += o.sfdr;
    batch_mod_lanes += o.batch_mod_lanes;
    batch_rx_lanes += o.batch_rx_lanes;
    osc += o.osc;
    osc_fine += o.osc_fine;
    qtune += o.qtune;
    bias += o.bias;
    final3 += o.final3;
    samples += o.samples;
    fft_points += o.fft_points;
    lanes += o.lanes;
    tus += o.tus;
    source_bytes += o.source_bytes;
    findings += o.findings;
  }
};

struct JobOutcome {
  bool ok = true;
  std::string why;
  Work work;
};

bool reading_ok(double db) { return std::isfinite(db) && db >= -200.0; }

// Production trial lengths (public option defaults).
const lock::EvaluatorOptions kEval{};
const std::uint64_t kModLen = kEval.settle + kEval.fft_size;
const std::uint64_t kRxLen =
    rf::receiver_input_length(kEval.baseband_points, kEval.settle);
const std::uint64_t kSfdrLen = kEval.settle + kEval.sfdr_fft_size;

/// Computed input samples and FFT points of scalar trials.
void add_scalar_trial_work(Work& w) {
  w.samples += w.mod * kModLen + w.rx * kRxLen + w.sfdr * kSfdrLen;
  w.fft_points += w.mod * kEval.fft_size + w.rx * kEval.baseband_points +
                  w.sfdr * kEval.sfdr_fft_size;
}

/// One chip calibration as seen from outside: measurement count and time.
struct CalibrationSample {
  std::uint64_t measurements = 0;
  double ms = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Jobs whose results form the repeatable digest and work counts.
  [[nodiscard]] virtual std::uint64_t prefix_jobs() const = 0;
  /// Set-ups per process; `setup_s` is their median.
  [[nodiscard]] virtual int setup_reps() const { return 5; }
  /// Builds every input and fixture from the seed; may run repeatedly.
  virtual void setup(std::uint64_t seed) = 0;
  /// A value that must come out identical from every set-up.
  [[nodiscard]] virtual std::uint64_t setup_signature() const = 0;
  virtual JobOutcome run_job(std::uint64_t index, Tracer* tracer,
                             Digest& digest) = 0;
  /// Modelled job time (ms) from layer costs and the job's work counts.
  [[nodiscard]] virtual double model_ms(const Work& w, const LayerCosts& c,
                                        const TrialModel& m) const = 0;
  /// True when work.trials counts oracle trials (false: analyzed TUs).
  [[nodiscard]] virtual bool counts_trials() const { return true; }

  std::vector<CalibrationSample> calibrations;

 protected:
  calib::CalibrationResult calibrate(const rf::Standard& standard,
                                     const sim::ProcessVariation& pv,
                                     const sim::Rng& chip_rng, Tracer* t) {
    const Clock::time_point t0 = Clock::now();
    calib::CalibrationResult r;
    {
      Span s(t, "calib.run");
      calib::Calibrator calibrator(standard, pv, chip_rng);
      r = calibrator.run();
    }
    calibrations.push_back({r.total_measurements, seconds_since(t0) * 1e3});
    return r;
  }
};

// ---- calibrate ----------------------------------------------------------

class CalibrateWorkload final : public Workload {
 public:
  [[nodiscard]] std::uint64_t prefix_jobs() const override { return 2; }

  void setup(std::uint64_t seed) override {
    root_ = sim::Rng(seed).fork("perfbench.calibrate");
    // Warm the FFT plan cache and the trial buffers with one trial of
    // each kind on a nominal chip, so the first timed job pays no
    // one-time cost the others do not.
    lock::LockEvaluator ev(rf::standard_max_3ghz(),
                           sim::ProcessVariation::nominal(), root_);
    const lock::Key64 key = lock::encode_key(rf::ReceiverConfig{});
    warm_ = ev.snr_modulator_db(key) + ev.snr_receiver_db(key) + ev.sfdr_db(key);
  }

  [[nodiscard]] std::uint64_t setup_signature() const override {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &warm_, sizeof bits);
    return bits;
  }

  JobOutcome run_job(std::uint64_t index, Tracer* t, Digest& d) override {
    JobOutcome out;
    const auto standards = rf::all_standards();
    const rf::Standard& standard = standards[index % standards.size()];
    sim::Rng job_rng = root_.fork("job", index);
    const std::uint64_t chip_id = job_rng.next_u64() >> 16;
    sim::ProcessVariation pv;
    {
      Span s(t, "sim.monte_carlo");
      pv = sim::ProcessVariation::monte_carlo(root_.fork("fab"), chip_id);
    }
    const calib::CalibrationResult r =
        calibrate(standard, pv, root_.fork("chip", chip_id), t);

    Span s(t, "bench.check");
    for (const double db : {r.snr_modulator_db, r.snr_receiver_db, r.sfdr_db}) {
      if (!reading_ok(db)) {
        out.ok = false;
        out.why = "non-finite or sub-floor characterization reading";
      }
    }
    const rf::PerformanceSpec& spec = standard.spec;
    if (r.success && (r.snr_receiver_db < spec.min_snr_db ||
                      r.sfdr_db < spec.min_sfdr_db)) {
      out.ok = false;
      out.why = "success reported but characterization misses spec";
    }
    if (!r.success && r.failure == calib::FailureReason::kNone) {
      out.ok = false;
      out.why = "failure reported with reason kNone";
    }
    d.u64(chip_id);
    d.u64(r.success ? 1 : 0);
    d.u64(static_cast<std::uint64_t>(r.failure));
    d.u64(r.key.bits());
    d.f64(r.snr_modulator_db);
    d.f64(r.snr_receiver_db);
    d.f64(r.sfdr_db);
    d.f64(r.tank_freq_err_hz);
    d.u64(r.total_measurements);

    Work& w = out.work;
    w.trials = r.total_measurements;
    std::uint64_t logged = 0;
    for (const calib::StepLog& step : r.log) {
      logged += step.measurements;
      if (step.step == 6) {
        (step.description.find("fine") != std::string::npos ? w.osc_fine
                                                            : w.osc) +=
            step.measurements;
      } else if (step.step == 7) {
        w.qtune += step.measurements;
      } else {
        w.bias += step.measurements;
      }
    }
    w.final3 = r.total_measurements - logged;
    const calib::Calibrator::Options o{};
    w.samples = w.osc * (o.oscillation.settle + o.oscillation.measure) +
                w.osc_fine * (4 * o.oscillation.settle + 16384 +
                              o.oscillation.measure) +
                w.qtune * (o.q.settle + o.q.measure) +
                w.bias * (kEval.settle + o.bias.fft_size) +
                w.final3 * (kModLen + kRxLen + kSfdrLen) / 3;
    w.fft_points = w.bias * o.bias.fft_size +
                   w.final3 *
                       (kEval.fft_size + kEval.baseband_points +
                        kEval.sfdr_fft_size) /
                       3;
    return out;
  }

  [[nodiscard]] double model_ms(const Work& w, const LayerCosts& c,
                                const TrialModel& m) const override {
    const calib::Calibrator::Options o{};
    const double step_ms = m.step_ns * 1e-6;
    const double osc_samples =
        static_cast<double>(o.oscillation.settle + o.oscillation.measure);
    const double fine_samples = static_cast<double>(
        4 * o.oscillation.settle + 16384 + o.oscillation.measure);
    const double q_samples = static_cast<double>(o.q.settle + o.q.measure);
    // Bias-optimizer trials are modelled as modulator-SNR trials at the
    // optimizer's capture length; its gated two-tone screens and the
    // periodogram's size difference are left to the residue.
    const double bias_len =
        static_cast<double>(kEval.settle + o.bias.fft_size);
    const double bias_trial_ms =
        c.at("rf.receiver_build_us") * 1e-3 +
        (c.at("rf.tone_ns_per_sample") + m.step_ns) * bias_len * 1e-6 +
        (c.at("dsp.periodogram_8192_us") * static_cast<double>(o.bias.fft_size) /
             8192.0 +
         c.at("dsp.measure_snr_us")) *
            1e-3;
    return static_cast<double>(w.osc) * osc_samples * step_ms +
           static_cast<double>(w.osc_fine) * fine_samples * step_ms +
           static_cast<double>(w.qtune) * q_samples * step_ms +
           static_cast<double>(w.bias) * bias_trial_ms +
           static_cast<double>(w.final3) / 3.0 *
               (m.modulator_ms + m.receiver_ms + m.sfdr_ms);
  }

 private:
  sim::Rng root_;
  double warm_ = 0.0;
};

// ---- chip-based workloads -----------------------------------------------

/// Attack bookkeeping the per-layer attack metrics are built from.
struct AttackTally {
  std::uint64_t jobs = 0, charged = 0, screens = 0, survivors = 0,
                overshoot = 0;
};

constexpr std::uint64_t kAttackBatch = 32;
constexpr double kScreenSnrDb = 20.0;

Work trial_delta(const lock::LockEvaluator::TrialCounts& before,
                 const lock::LockEvaluator::TrialCounts& after) {
  Work w;
  w.mod = after.snr_modulator - before.snr_modulator;
  w.rx = after.snr_receiver - before.snr_receiver;
  w.sfdr = after.sfdr - before.sfdr;
  w.trials = w.mod + w.rx + w.sfdr;
  return w;
}

class ChipWorkload : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    root_ = sim::Rng(seed).fork(name_);
    const sim::Rng fab = root_.fork("fab");
    sim::Rng ids = root_.fork("chip-ids");
    // The seed names the chip; a chip whose calibration reports failure
    // is skipped in favour of the next id, so every job runs on a chip
    // with a working key.
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::uint64_t id = ids.next_u64() >> 16;
      const sim::ProcessVariation pv = sim::ProcessVariation::monte_carlo(fab, id);
      const sim::Rng chip_rng = root_.fork("chip", id);
      const calib::CalibrationResult cal =
          calibrate(standard(), pv, chip_rng, nullptr);
      if (cal.success) {
        chip_id_ = id;
        key_ = cal.key;
        evaluator_ =
            std::make_unique<lock::LockEvaluator>(standard(), pv, chip_rng);
        return;
      }
    }
    throw std::runtime_error("no calibratable chip among 8 seeded ids");
  }

  // A set-up is a chip calibration (~3 s), so three are enough.
  [[nodiscard]] int setup_reps() const override { return 3; }

  [[nodiscard]] std::uint64_t setup_signature() const override {
    return chip_id_ ^ key_.bits();
  }

  AttackTally tally;

  /// Attack job with uniform keys and an attacker seed no workload job
  /// uses.
  JobOutcome attack_probe(std::uint64_t index) {
    Digest unused;
    return attack_job((1ULL << 40) + index, false, nullptr, unused);
  }

 protected:
  /// Runs one attack job; `force_mission` selects the attacker that has
  /// reverse-engineered the mode bits.
  JobOutcome attack_job(std::uint64_t index, bool force_mission, Tracer* t,
                        Digest& d) {
    JobOutcome out;
    attack::BruteForceOptions opt;
    opt.max_trials = kAttackBatch;
    opt.batch_size = kAttackBatch;
    opt.screen_snr_db = kScreenSnrDb;
    opt.force_mission_mode = force_mission;
    const auto before = evaluator_->trial_counts();
    attack::BruteForceResult r;
    {
      Span s(t, "attack.run");
      attack::BruteForceAttack a(*evaluator_, root_.fork("attacker", index));
      r = a.run(opt);
    }
    Span s(t, "bench.check");
    const Work charged = trial_delta(before, evaluator_->trial_counts());
    std::uint64_t survivors = 0;
    for (std::size_t i = 0; i < r.screen_snr_db.size(); ++i) {
      const double db = r.screen_snr_db[i];
      if (!reading_ok(db)) {
        out.ok = false;
        out.why = "non-finite or sub-floor screen reading " +
                  std::to_string(db) + " (screen " + std::to_string(i) + ")";
      }
      if (db >= kScreenSnrDb) ++survivors;
    }
    if (!reading_ok(r.best_screen_snr_db) ||
        (survivors > 0 && !reading_ok(r.best_receiver_snr_db))) {
      out.ok = false;
      out.why = "non-finite or sub-floor best reading";
    }
    // Every screen is one modulator trial and every survivor one receiver
    // trial (plus an SFDR trial for a receiver pass); the charges must
    // match that exactly.
    if (r.trials != r.screen_snr_db.size() || charged.mod != r.trials ||
        charged.rx != survivors ||
        charged.trials != r.cost.snr_trials + r.cost.sfdr_trials ||
        r.cost.snr_trials != r.trials + survivors) {
      out.ok = false;
      out.why = "trials charged do not match screens + survivors";
    }
    tally.jobs += 1;
    tally.charged += charged.trials;
    tally.screens += r.trials;
    tally.survivors += survivors;
    tally.overshoot += charged.trials > opt.max_trials
                           ? charged.trials - opt.max_trials
                           : 0;

    Work& w = out.work;
    w.trials = charged.trials;
    w.batch_mod_lanes = charged.mod;
    w.batch_rx_lanes = charged.rx;
    w.sfdr = charged.sfdr;
    w.lanes = charged.mod + charged.rx;
    w.samples = charged.mod * kModLen + charged.rx * kRxLen +
                charged.sfdr * kSfdrLen;
    w.fft_points = charged.mod * kEval.fft_size +
                   charged.rx * kEval.baseband_points +
                   charged.sfdr * kEval.sfdr_fft_size;

    d.u64(r.success ? 1 : 0);
    d.u64(r.best_key.bits());
    d.f64(r.best_screen_snr_db);
    d.f64(r.best_receiver_snr_db);
    for (const double db : r.screen_snr_db) d.f64(db);
    return out;
  }

  explicit ChipWorkload(const char* name) : name_(name) {}
  static const rf::Standard& standard() { return rf::standard_max_3ghz(); }

  const char* name_;
  sim::Rng root_;
  std::uint64_t chip_id_ = 0;
  lock::Key64 key_;  ///< the chip's calibrated key
  std::unique_ptr<lock::LockEvaluator> evaluator_;
};

lock::Key64 deceptive_key(const lock::Key64& key) {
  // The paper's deceptive key class: loop open and comparator unclocked.
  return key.with_bit(lock::KeyLayout::kFeedbackEnable, false)
      .with_bit(lock::KeyLayout::kCompClockEnable, false);
}


class SpecSweepWorkload final : public ChipWorkload {
 public:
  SpecSweepWorkload() : ChipWorkload("perfbench.spec_sweep") {}
  [[nodiscard]] std::uint64_t prefix_jobs() const override { return 16; }

  JobOutcome run_job(std::uint64_t index, Tracer* t, Digest& d) override {
    JobOutcome out;
    sim::Rng rng = root_.fork("job", index);
    // Fixed kind mix over a cycle of eight jobs: 2 calibrated, 3 with one
    // field perturbed, 1 deceptive, 2 random. The calibrated and perturbed
    // jobs cost about the same and so do the deceptive and random ones;
    // an uneven split keeps the job-time median off the cluster boundary.
    static constexpr std::uint64_t kKinds[8] = {0, 2, 1, 2, 3, 2, 0, 3};
    const std::uint64_t kind = kKinds[index % 8];
    const lock::Key64 cal = key_;
    lock::Key64 key = cal;
    if (kind == 1) {
      key = deceptive_key(cal);
    } else if (kind == 2) {
      static constexpr analock::sim::BitRange kFields[] = {
          lock::KeyLayout::kVglnaGain,  lock::KeyLayout::kCapCoarse,
          lock::KeyLayout::kCapFine,    lock::KeyLayout::kQEnh,
          lock::KeyLayout::kGminBias,   lock::KeyLayout::kDacBias,
          lock::KeyLayout::kPreampBias, lock::KeyLayout::kCompBias,
          lock::KeyLayout::kLoopDelay,  lock::KeyLayout::kOutBuffer};
      const analock::sim::BitRange f =
          kFields[rng.uniform_below(std::size(kFields))];
      key = cal.with_field(f, rng.next_u64() & ((1ULL << f.width) - 1));
    } else if (kind == 3) {
      key = lock::Key64::random(rng);
    }
    // Fig. 11 input-power grid: -85 ... 0 dBm in 5 dB steps.
    const double dbm = -85.0 + 5.0 * static_cast<double>(rng.uniform_below(18));

    const auto before = evaluator_->trial_counts();
    lock::PerformanceReport report;
    {
      Span s(t, "lock.evaluate");
      report = evaluator_->evaluate(key);
    }
    double rx_at_dbm = 0.0;
    {
      Span s(t, "lock.snr_receiver");
      rx_at_dbm = evaluator_->snr_receiver_db(key, dbm);
    }
    Span s(t, "bench.check");
    out.work = trial_delta(before, evaluator_->trial_counts());
    add_scalar_trial_work(out.work);
    for (const double db : {report.snr_modulator_db, report.snr_receiver_db,
                            report.sfdr_db, rx_at_dbm}) {
      if (!reading_ok(db)) {
        out.ok = false;
        out.why = "non-finite or sub-floor reading";
      }
    }
    if (kind == 0 && !report.unlocked()) {
      out.ok = false;
      out.why = "calibrated key does not unlock";
    }
    if (kind == 1 && report.unlocked()) {
      out.ok = false;
      out.why = "deceptive key unlocks";
    }
    d.u64(key.bits());
    d.f64(dbm);
    d.f64(report.snr_modulator_db);
    d.f64(report.snr_receiver_db);
    d.f64(report.sfdr_db);
    d.f64(rx_at_dbm);
    return out;
  }

  [[nodiscard]] double model_ms(const Work& w, const LayerCosts&,
                                const TrialModel& m) const override {
    return static_cast<double>(w.mod) * m.modulator_ms +
           static_cast<double>(w.rx) * m.receiver_ms +
           static_cast<double>(w.sfdr) * m.sfdr_ms;
  }
};

/// One brute-force attack job: a single 32-key screen batch on the
/// chip's evaluator with a per-job attacker seed.
class AttackScreenWorkload final : public ChipWorkload {
 public:
  AttackScreenWorkload() : ChipWorkload("perfbench.attack_screen") {}
  [[nodiscard]] std::uint64_t prefix_jobs() const override { return 16; }

  JobOutcome run_job(std::uint64_t index, Tracer* t, Digest& d) override {
    return attack_job(index, index % 2 == 1, t, d);
  }

  [[nodiscard]] double model_ms(const Work& w, const LayerCosts& c,
                                const TrialModel& m) const override {
    // Batched screens: lane build share + one stimulus + per-lane
    // stepping, FFT and metric; survivors likewise at receiver length.
    const double build_lane_ms = c.at("rf.batch_build_ms") / kAttackBatch;
    const double tone_ns = c.at("rf.tone_ns_per_sample");
    const double lanes_mod = static_cast<double>(w.batch_mod_lanes);
    const double lanes_rx = static_cast<double>(w.batch_rx_lanes);
    double ms = lanes_mod * build_lane_ms +
                tone_ns * static_cast<double>(kModLen) * 1e-6 +
                lanes_mod * (c.at("rf.batch_mod_lane_ns_per_sample") *
                                 static_cast<double>(kModLen) * 1e-6 +
                             (c.at("dsp.many_real_us_per_lane") +
                              c.at("dsp.measure_snr_us")) *
                                 1e-3);
    if (w.batch_rx_lanes > 0) {
      ms += lanes_rx * build_lane_ms +
            tone_ns * static_cast<double>(kRxLen) * 1e-6 +
            lanes_rx * (c.at("rf.batch_rx_lane_ns_per_sample") *
                            static_cast<double>(kRxLen) * 1e-6 +
                        (c.at("dsp.periodogram_c2048_us") +
                         c.at("dsp.measure_snr_us")) *
                            1e-3);
    }
    return ms + static_cast<double>(w.sfdr) * m.sfdr_ms;
  }
};

// ---- verify_src ---------------------------------------------------------

/// Per-pass analyzer timings, accumulated from traced jobs or probes.
struct AnalysisTimes {
  double add_source_ms = 0.0, run_ms = 0.0, sarif_ms = 0.0;
  std::uint64_t passes = 0, findings = 0;
};

struct Pass {
  std::vector<an::Finding> findings;
  std::string sarif;
};

/// One full analock-verify pass over `corpus`, with spans and timings.
Pass analyze(const Corpus& corpus, Tracer* t, AnalysisTimes* times) {
  Pass p;
  Clock::time_point t0 = Clock::now();
  an::Engine engine;
  {
    Span s(t, "analysis.add_source");
    for (const auto& [path, text] : corpus.files) engine.add_source(path, text);
  }
  const double add_ms = seconds_since(t0) * 1e3;
  t0 = Clock::now();
  {
    Span s(t, "analysis.run");
    p.findings = engine.run();
  }
  const double run_ms = seconds_since(t0) * 1e3;
  t0 = Clock::now();
  {
    Span s(t, "analysis.sarif");
    p.sarif = an::to_sarif(p.findings);
  }
  if (times != nullptr) {
    times->add_source_ms += add_ms;
    times->run_ms += run_ms;
    times->sarif_ms += seconds_since(t0) * 1e3;
    times->passes += 1;
    times->findings = p.findings.size();
  }
  return p;
}

/// Empty when the findings are exactly the planted set.
std::string compare_findings(const std::vector<an::Finding>& found,
                             const std::vector<PlantedFinding>& planted) {
  std::vector<std::string> got;
  std::vector<std::string> want;
  for (const an::Finding& f : found) {
    got.push_back(f.file + ":" + std::to_string(f.line) + ":" + f.rule);
  }
  for (const PlantedFinding& f : planted) {
    want.push_back(f.file + ":" + std::to_string(f.line) + ":" + f.rule);
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got == want) return {};
  std::vector<std::string> extra;
  std::vector<std::string> missing;
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::string why = "findings differ from the planted set:";
  for (std::size_t i = 0; i < extra.size() && i < 4; ++i) {
    why += " +" + extra[i];
  }
  for (std::size_t i = 0; i < missing.size() && i < 4; ++i) {
    why += " -" + missing[i];
  }
  return why;
}

class VerifySrcWorkload final : public Workload {
 public:
  [[nodiscard]] std::uint64_t prefix_jobs() const override { return 4; }
  [[nodiscard]] bool counts_trials() const override { return false; }

  void setup(std::uint64_t seed) override {
    corpus_ = make_corpus(seed);
    // Warm-up pass: first-touch allocation and the pool's first dispatch.
    warm_findings_ = analyze(corpus_, nullptr, nullptr).findings.size();
  }

  [[nodiscard]] std::uint64_t setup_signature() const override {
    return corpus_.bytes ^ (warm_findings_ << 32);
  }

  JobOutcome run_job(std::uint64_t, Tracer* t, Digest& d) override {
    JobOutcome out;
    const Pass p = analyze(corpus_, t, t != nullptr ? &times : nullptr);
    Span s(t, "bench.check");
    out.why = compare_findings(p.findings, corpus_.planted);
    out.ok = out.why.empty();
    if (p.sarif.find("\"version\": \"2.1.0\"") == std::string::npos) {
      out.ok = false;
      out.why = "SARIF output lacks the 2.1.0 version field";
    }
    d.bytes(p.sarif.data(), p.sarif.size());
    out.work.tus = corpus_.files.size();
    out.work.trials = corpus_.files.size();
    out.work.source_bytes = corpus_.bytes;
    out.work.findings = p.findings.size();
    return out;
  }

  [[nodiscard]] double model_ms(const Work&, const LayerCosts&,
                                const TrialModel&) const override {
    // The analyzer's three calls are timed directly in the traced jobs.
    return times.add_source_ms + times.run_ms + times.sarif_ms;
  }

  AnalysisTimes times;

 private:
  Corpus corpus_;
  std::uint64_t warm_findings_ = 0;
};

// ---- loop, statistics, report -------------------------------------------

struct LoopResult {
  std::vector<double> job_ms;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  Work work_all, work_prefix;
  Digest digest_all, digest_prefix;
  double elapsed_s = 0.0;
};

LoopResult run_loop(Workload& w, double seconds, Tracer* tracer) {
  LoopResult r;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < w.prefix_jobs() || seconds_since(start) < seconds;
       ++i) {
    if (tracer != nullptr) tracer->set_job(i);
    Digest job_digest;
    JobOutcome o;
    const Clock::time_point t0 = Clock::now();
    try {
      Span s(tracer, "job");
      o = w.run_job(i, tracer, job_digest);
    } catch (const std::exception& e) {
      o.ok = false;
      o.why = std::string("exception: ") + e.what();
    }
    r.job_ms.push_back(seconds_since(t0) * 1e3);
    ++r.attempted;
    if (!o.ok) {
      ++r.failed;
      if (r.failures.size() < 8) {
        r.failures.push_back("job " + std::to_string(i) + ": " + o.why);
      }
    }
    const std::uint64_t jd = job_digest.value();
    r.work_all.add(o.work);
    r.digest_all.u64(jd);
    if (i < w.prefix_jobs()) {
      r.work_prefix.add(o.work);
      r.digest_prefix.u64(jd);
    }
  }
  r.elapsed_s = seconds_since(start);
  return r;
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process image (MB). VmHWM is reset by
/// exec, unlike getrusage's ru_maxrss, which keeps the high-water mark of
/// the launching process (the Python wrapper) across fork and exec.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      unsigned long kib = 0;
      if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) {
        std::fclose(f);
        return static_cast<double>(kib) / 1024.0;
      }
    }
    std::fclose(f);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Effective cores: aggregate arithmetic rate of `n` concurrent threads
/// over the one-thread rate.
double measured_parallel_capacity(unsigned n) {
  const auto spin = [] {
    double x = 1.0;
    for (int i = 0; i < 20'000'000; ++i) x = x * 1.0000001 + 1e-9;
    return x;
  };
  volatile double sink = 0.0;
  Clock::time_point t0 = Clock::now();
  sink = spin();
  const double t1 = seconds_since(t0);
  t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < n; ++i) {
      threads.emplace_back([&sink, &spin] {
        const double x = spin();
        if (x < 0.0) sink = x;
      });
    }
    for (std::thread& th : threads) th.join();
  }
  const double tn = seconds_since(t0);
  (void)sink;
  return static_cast<double>(n) * t1 / tn;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
    } else if (k == "--spans") {
      a.spans = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else if (k == "--src-digest") {
      a.src_digest = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a.workload.empty() &&
         (a.trace == 0 || a.trace == 1) && a.seconds > 0.0;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "calibrate") return std::make_unique<CalibrateWorkload>();
  if (name == "spec_sweep") return std::make_unique<SpecSweepWorkload>();
  if (name == "attack_screen") return std::make_unique<AttackScreenWorkload>();
  if (name == "verify_src") return std::make_unique<VerifySrcWorkload>();
  return nullptr;
}

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

void print_work(const char* label, const Work& w, bool trials) {
  std::printf(
      "  %s: trials %llu (mod %llu, rx %llu, sfdr %llu, batch lanes %llu+%llu, "
      "calib osc %llu fine %llu q %llu bias %llu final %llu) | computed: input "
      "samples %llu, fft points %llu, lanes %llu | tus %llu, bytes %llu, "
      "findings %llu%s\n",
      label, static_cast<unsigned long long>(w.trials),
      static_cast<unsigned long long>(w.mod),
      static_cast<unsigned long long>(w.rx),
      static_cast<unsigned long long>(w.sfdr),
      static_cast<unsigned long long>(w.batch_mod_lanes),
      static_cast<unsigned long long>(w.batch_rx_lanes),
      static_cast<unsigned long long>(w.osc),
      static_cast<unsigned long long>(w.osc_fine),
      static_cast<unsigned long long>(w.qtune),
      static_cast<unsigned long long>(w.bias),
      static_cast<unsigned long long>(w.final3),
      static_cast<unsigned long long>(w.samples),
      static_cast<unsigned long long>(w.fft_points),
      static_cast<unsigned long long>(w.lanes),
      static_cast<unsigned long long>(w.tus),
      static_cast<unsigned long long>(w.source_bytes),
      static_cast<unsigned long long>(w.findings),
      trials ? "" : " (trials = TUs analyzed)");
}

void print_loop(const char* label, const Workload& w, const LoopResult& r) {
  const std::size_t n = r.job_ms.size();
  std::printf("%s loop: %zu jobs in %.3f s, failed %llu (fail_ratio %.4f)\n",
              label, n, r.elapsed_s, static_cast<unsigned long long>(r.failed),
              static_cast<double>(r.failed) / static_cast<double>(r.attempted));
  std::printf("  job_ms_p50 %.3f ms (p50 of %zu jobs)\n", median(r.job_ms), n);
  if (n >= 20) {
    // Highest whole percentile with at least ten jobs beyond it.
    const int pct = static_cast<int>(
        std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n))));
    std::printf("  job_ms_tail %.3f ms (p%d of %zu jobs)\n",
                quantile(r.job_ms, pct / 100.0), pct, n);
  } else {
    std::printf("  job_ms_tail omitted (%zu jobs < 20)\n", n);
  }
  std::printf("  %s %.4f /s\n", w.counts_trials() ? "trials_per_s" : "tus_per_s",
              static_cast<double>(r.work_all.trials) / r.elapsed_s);
  std::printf("  digest prefix(%llu jobs) %016llx  all(%zu jobs) %016llx\n",
              static_cast<unsigned long long>(w.prefix_jobs()),
              static_cast<unsigned long long>(r.digest_prefix.value()), n,
              static_cast<unsigned long long>(r.digest_all.value()));
  print_work("work prefix", r.work_prefix, w.counts_trials());
  for (const std::string& f : r.failures) std::printf("  FAIL %s\n", f.c_str());
}

void print_result(bool correct, const LoopResult& r, const Metrics& m) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : m) {
    const double v = std::isfinite(metric.value) ? metric.value : -1.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

Metrics per_layer(Workload& w, std::uint64_t seed,
                  const LoopResult& untraced, const LoopResult& traced,
                  const Tracer& tracer, bool& probe_ok) {
  Metrics m;
  const LayerCosts costs = run_layer_probes();
  const TrialModel model = trial_model(costs);
  for (const auto& [k, v] : costs) {
    const char* unit = "ratio";
    if (k.find("_ns") != std::string::npos) {
      unit = "ns";
    } else if (k.find("_us") != std::string::npos) {
      unit = "us";
    } else if (k.find("_ms") != std::string::npos) {
      unit = "ms";
    }
    m[k] = {v, unit};
  }

  // calib: this workload's own calibrations (jobs or set-up).
  std::uint64_t meas = 0;
  double cal_ms = 0.0;
  for (const CalibrationSample& c : w.calibrations) {
    meas += c.measurements;
    cal_ms += c.ms;
  }
  const double chips = static_cast<double>(w.calibrations.size());
  m["calib.measurements_per_chip"] = {
      chips > 0 ? static_cast<double>(meas) / chips : 0.0, "count"};
  m["calib.ms_per_measurement"] = {
      meas > 0 ? cal_ms / static_cast<double>(meas) : 0.0, "ms"};

  // attack: this workload's brute-force jobs; a workload with a
  // calibrated chip but no attack jobs runs four probe attacks on it
  // (uniform keys, like spec_sweep's random keys); zero elsewhere.
  AttackTally tally;
  if (auto* chip = dynamic_cast<ChipWorkload*>(&w)) {
    for (std::uint64_t i = 0; chip->tally.jobs < 4; ++i) {
      const JobOutcome o = chip->attack_probe(i);
      if (!o.ok) {
        std::printf("  FAIL attack probe %llu: %s\n",
                    static_cast<unsigned long long>(i), o.why.c_str());
        probe_ok = false;
      }
    }
    tally = chip->tally;
  }
  const double ajobs = static_cast<double>(tally.jobs);
  m["attack.trials_per_job"] = {
      tally.jobs > 0 ? static_cast<double>(tally.charged) / ajobs : 0.0,
      "count"};
  m["attack.screen_survivor_ratio"] = {
      tally.screens > 0 ? static_cast<double>(tally.survivors) /
                              static_cast<double>(tally.screens)
                        : 0.0,
      "ratio"};
  m["attack.overshoot_trials"] = {
      tally.jobs > 0 ? static_cast<double>(tally.overshoot) / ajobs : 0.0,
      "count"};

  // analysis: verify_src's traced passes, else three probe passes over
  // the same seeded corpus.
  AnalysisTimes at;
  if (auto* v = dynamic_cast<VerifySrcWorkload*>(&w)) {
    at = v->times;
  } else {
    const Corpus corpus = make_corpus(seed);
    for (int i = 0; i < 3; ++i) (void)analyze(corpus, nullptr, &at);
  }
  const double passes = static_cast<double>(std::max<std::uint64_t>(1, at.passes));
  m["analysis.add_source_ms"] = {at.add_source_ms / passes, "ms"};
  m["analysis.run_ms"] = {at.run_ms / passes, "ms"};
  m["analysis.sarif_ms"] = {at.sarif_ms / passes, "ms"};
  m["analysis.findings"] = {static_cast<double>(at.findings), "count"};

  // Self time per layer, per traced job.
  const double tjobs = static_cast<double>(traced.job_ms.size());
  const auto self = tracer.self_ms_by_layer();
  for (const char* layer : {"bench", "sim", "lock", "calib", "attack", "analysis"}) {
    const auto it = self.find(layer);
    m[std::string("self.") + layer + "_ms_per_job"] = {
        it != self.end() ? it->second / tjobs : 0.0, "ms"};
  }

  double traced_ms = 0.0;
  for (const double v : traced.job_ms) traced_ms += v;
  // Σ layer cost × work count over the traced jobs.
  m["recon.unexplained_frac"] = {
      1.0 - w.model_ms(traced.work_all, costs, model) / traced_ms, "ratio"};
  m["obs.trace_overhead_frac"] = {
      median(traced.job_ms) / median(untraced.job_ms) - 1.0, "ratio"};

  const Work& p = untraced.work_prefix;
  m["work.trials"] = {static_cast<double>(p.trials), "count"};
  m["work.computed_input_samples"] = {static_cast<double>(p.samples), "count"};
  m["work.computed_fft_points"] = {static_cast<double>(p.fft_points), "count"};
  m["work.computed_lanes"] = {static_cast<double>(p.lanes), "count"};
  m["work.source_bytes"] = {static_cast<double>(p.source_bytes), "count"};
  return m;
}

int run(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace);

  // Set-up several times; set-up time is the median.
  std::vector<double> setup_s;
  std::uint64_t signature = 0;
  bool setup_stable = true;
  for (int i = 0; i < w->setup_reps(); ++i) {
    const Clock::time_point t0 = Clock::now();
    w->setup(a.seed);
    setup_s.push_back(seconds_since(t0));
    if (i > 0 && w->setup_signature() != signature) setup_stable = false;
    signature = w->setup_signature();
  }
  std::printf("setup: median %.4f s of %zu, signature %016llx%s\n",
              median(setup_s), setup_s.size(),
              static_cast<unsigned long long>(signature),
              setup_stable ? "" : " UNSTABLE");

  const LoopResult untraced = run_loop(*w, a.seconds, nullptr);
  print_loop("untraced", *w, untraced);
  bool correct = setup_stable && untraced.failed == 0;
  const double rss = peak_rss_mb();

  Metrics metrics;
  const LoopResult* reported = &untraced;
  LoopResult traced;
  if (a.trace == 0) {
    metrics["setup_s"] = {median(setup_s), "s"};
    metrics["job_ms_p50"] = {median(untraced.job_ms), "ms"};
    metrics["work_per_s"] = {
        static_cast<double>(untraced.work_all.trials) / untraced.elapsed_s,
        "1/s"};
    metrics["peak_rss_mb"] = {rss, "MB"};
  } else {
    Tracer tracer;
    traced = run_loop(*w, a.seconds, &tracer);
    print_loop("traced", *w, traced);
    if (traced.digest_prefix.value() != untraced.digest_prefix.value()) {
      std::printf("  FAIL traced results differ from untraced results\n");
      correct = false;
    }
    correct = correct && traced.failed == 0;
    bool probe_ok = true;
    metrics =
        per_layer(*w, a.seed, untraced, traced, tracer, probe_ok);
    correct = correct && probe_ok;
    if (!a.spans.empty() && !tracer.write_jsonl(a.spans)) {
      std::printf("  cannot write spans to %s\n", a.spans.c_str());
    }
    reported = &traced;
  }

  const analock::prof::PerfCounters counters;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf(
      "env: git_sha=%s src_digest=%s compiler=\"%s\" flags=\"%s\" seed=%llu "
      "pool_size=%zu nproc=%u measured_parallel_capacity=%.2f "
      "counter_mode=%s peak_rss_mb=%.1f\n",
      a.git_sha.c_str(), a.src_digest.c_str(), PERFBENCH_CXX_ID,
      PERFBENCH_CXX_FLAGS, static_cast<unsigned long long>(a.seed),
      analock::par::ThreadPool::shared().size(), nproc,
      measured_parallel_capacity(nproc),
      analock::prof::to_string(counters.mode()), rss);
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-36s %.6g %s\n", name.c_str(), metric.value, metric.unit);
  }
  LoopResult summary = *reported;
  if (a.trace == 1) {
    summary.attempted += untraced.attempted;
    summary.failed += untraced.failed;
  }
  print_result(correct, summary, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <calibrate|spec_sweep|"
                 "attack_screen|verify_src> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>] [--git-sha <sha>] "
                 "[--src-digest <hex>]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
