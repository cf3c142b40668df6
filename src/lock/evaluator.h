// Lock-efficiency evaluator: applies a key to a (behavioral) chip and
// measures the paper's performance metrics — SNR at the modulator output
// (Fig. 7), SNR at the receiver output (Fig. 9), two-tone SFDR (Fig. 12)
// — against the standard's specification. Locking succeeds when at least
// one performance violates its specification (Section VI.A).
//
// Every evaluation is deterministic for a given (chip, key, options):
// every trial sees the same noise streams from their start, so
// calibration searches and tests see a stable objective. The streams
// depend on no key, so the evaluator draws their prefix once, into an
// rf::NoiseTape as long as the modulator-SNR capture, and every later
// trial replays it; trials longer than the tape continue each stream
// from its saved state. The stimulus tone is synthesized window by
// window, never stored whole. The evaluator also counts trials, which
// the attack cost model converts into projected silicon/simulation time.
//
// Each oracle has one implementation over a span of keys, stepped as
// lanes of an rf::ReceiverBatch; a single-key call is a batch of one.
// Every reading is independent of the batch size, the batch position,
// the thread count and the calls made before it, and trial counters and
// fault-injector draws advance as if the keys were measured one call at
// a time. A call may fill the tape, so one evaluator serves one caller
// thread at a time; the many-key forms shard lanes across a pool.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/spectrum.h"
#include "fault/fault_injector.h"
#include "lock/key64.h"
#include "lock/key_layout.h"
#include "par/thread_pool.h"
#include "rf/receiver.h"
#include "rf/receiver_batch.h"
#include "rf/standards.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace analock::lock {

struct EvaluatorOptions {
  double input_dbm = -25.0;      ///< paper's reference input power
  std::size_t fft_size = 8192;   ///< modulator capture length (paper)
  std::size_t sfdr_fft_size = 16384;  ///< finer grid for two-tone products
  std::size_t baseband_points = 2048;  ///< receiver-output capture length
  std::size_t settle = 2048;     ///< analog settle (input samples)
  double two_tone_spacing_hz = 10.0e6;  ///< paper's SFDR tone spacing
  /// Per-tone power for the SFDR reference check: 5 dB below the SNR
  /// reference so the two-tone peak envelope matches the single-tone
  /// drive level (the paper leaves the SFDR stimulus power unspecified).
  double two_tone_dbm = -30.0;
};

/// One full performance characterization of a key on a chip.
struct PerformanceReport {
  double snr_modulator_db = -200.0;
  double snr_receiver_db = -200.0;
  double sfdr_db = -200.0;
  bool snr_ok = false;
  bool sfdr_ok = false;

  /// Paper criterion: the circuit is unlocked only if every measured
  /// performance meets its specification.
  [[nodiscard]] bool unlocked() const { return snr_ok && sfdr_ok; }
};

class LockEvaluator {
 public:
  LockEvaluator(const rf::Standard& standard,
                const sim::ProcessVariation& process, const sim::Rng& rng,
                EvaluatorOptions options = {});

  [[nodiscard]] const rf::Standard& standard() const { return *standard_; }
  [[nodiscard]] const EvaluatorOptions& options() const { return options_; }
  [[nodiscard]] const sim::ProcessVariation& process() const {
    return process_;
  }

  /// SNR (dB) at the BP sigma-delta output for a single in-band tone at
  /// `input_dbm` (default: options().input_dbm). Fig. 7 measurement.
  double snr_modulator_db(const Key64& key);
  double snr_modulator_db(const Key64& key, double input_dbm);

  /// SNR (dB) at the RF-receiver (decimated baseband) output. Fig. 9.
  double snr_receiver_db(const Key64& key);
  double snr_receiver_db(const Key64& key, double input_dbm);

  /// Two-tone SFDR (dB) at the modulator output. Fig. 12.
  double sfdr_db(const Key64& key);
  double sfdr_db(const Key64& key, double dbm_per_tone);

  /// Full report: SNR at both outputs plus SFDR, checked against the
  /// standard's PerformanceSpec.
  PerformanceReport evaluate(const Key64& key);

  /// Cheap screen used by attacks: receiver-output SNR against spec only.
  bool unlocks(const Key64& key);

  // Many-key forms of the oracles above: result i corresponds to keys[i]
  // and equals the single-key call for keys[i]; lanes are sharded across
  // `pool`. lock::BatchEvaluator binds the pool.
  std::vector<double> snr_modulator_db(std::span<const Key64> keys,
                                       double input_dbm,
                                       par::ThreadPool& pool);
  std::vector<double> snr_receiver_db(std::span<const Key64> keys,
                                      double input_dbm,
                                      par::ThreadPool& pool);
  std::vector<double> sfdr_db(std::span<const Key64> keys,
                              double dbm_per_tone, par::ThreadPool& pool);
  std::vector<PerformanceReport> evaluate(std::span<const Key64> keys,
                                          par::ThreadPool& pool);

  /// Per-metric measurement counts. The aggregate trials() below is
  /// always the sum of these, so the legacy total and the per-metric
  /// breakdown cannot disagree.
  struct TrialCounts {
    std::uint64_t snr_modulator = 0;
    std::uint64_t snr_receiver = 0;
    std::uint64_t sfdr = 0;
    [[nodiscard]] std::uint64_t total() const {
      return snr_modulator + snr_receiver + sfdr;
    }
  };

  [[nodiscard]] const TrialCounts& trial_counts() const { return trials_; }

  /// Number of single-metric measurements performed so far (attack cost
  /// accounting: the paper charges ~20 simulated minutes per SNR point).
  /// Legacy aggregate: delegates to the per-metric counters.
  [[nodiscard]] std::uint64_t trials() const { return trials_.total(); }
  void reset_trials() { trials_ = {}; }

  /// Attaches a fault campaign (not owned; nullptr detaches). An active
  /// injector perturbs every oracle reading (noise spikes / transient
  /// dropouts) and applies stuck-at bits to the fabric word before it is
  /// programmed. With no injector — or an inactive plan — every
  /// measurement is bit-exact with the fault layer absent.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }
  [[nodiscard]] fault::FaultInjector* fault_injector() const {
    return injector_;
  }

 private:
  /// Decoded lane configs; stuck-at register bits corrupt each word
  /// between the key source and the fabric (perturb_word draws no RNG).
  [[nodiscard]] std::vector<rf::ReceiverConfig> lane_configs(
      std::span<const Key64> keys) const;

  // Clean (pre-fault-injector) metric cores: capture, spectrum, metric.
  // Each fills the noise tape with the streams its keys need.
  [[nodiscard]] std::vector<double> clean_snr_modulator(
      std::span<const Key64> keys, double input_dbm, par::ThreadPool& pool);
  [[nodiscard]] std::vector<double> clean_snr_receiver(
      std::span<const Key64> keys, double input_dbm, par::ThreadPool& pool);
  [[nodiscard]] std::vector<double> clean_sfdr(std::span<const Key64> keys,
                                               double dbm_per_tone,
                                               par::ThreadPool& pool);

  /// Routes a clean reading through the injector, if any.
  [[nodiscard]] double faulted(const char* site, double clean_db) const;

  const rf::Standard* standard_;
  sim::ProcessVariation process_;
  sim::Rng rng_;
  EvaluatorOptions options_;
  /// Noise prefix of the modulator-SNR capture (settle + fft_size),
  /// drawn once and replayed by every trial.
  rf::NoiseTape tape_;
  TrialCounts trials_;
  fault::FaultInjector* injector_ = nullptr;
};

}  // namespace analock::lock
