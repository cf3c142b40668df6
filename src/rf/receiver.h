// Programmable multi-standard RF receiver (paper Fig. 4): VGLNA ->
// BP RF sigma-delta modulator -> digital down-conversion + decimation.
//
// This is the locking demonstration vehicle. Its complete analog
// programming state is the 64-bit configuration word (4 VGLNA bits +
// 60 modulator bits) that the lock/ layer treats as the secret key.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/tonegen.h"
#include "rf/bp_sigma_delta.h"
#include "rf/digital_backend.h"
#include "rf/standards.h"
#include "rf/vglna.h"
#include "sim/process.h"
#include "sim/rng.h"

namespace analock::rf {

/// Complete decoded programming state of the receiver.
struct ReceiverConfig {
  std::uint32_t vglna_gain = 9;  ///< 4-bit VGLNA gain word
  ModulatorConfig modulator;     ///< 60-bit analog modulator state
  std::uint32_t digital_mode = 0;  ///< 3-bit digital section (not locked)

  friend bool operator==(const ReceiverConfig&,
                         const ReceiverConfig&) = default;
};

/// Output of a full-receiver capture.
struct ReceiverCapture {
  BasebandCapture baseband;
};

class Receiver {
 public:
  /// Default settle time (input samples) before captures are recorded.
  static constexpr std::size_t kSettleSamples = 2048;

  Receiver(const Standard& standard, const sim::ProcessVariation& process,
           const sim::Rng& rng);

  void configure(const ReceiverConfig& config);
  [[nodiscard]] const ReceiverConfig& config() const { return config_; }

  [[nodiscard]] const Standard& standard() const { return *standard_; }
  [[nodiscard]] double fs_hz() const { return modulator_.fs_hz(); }
  [[nodiscard]] Vglna& vglna() { return vglna_; }
  [[nodiscard]] const Vglna& vglna() const { return vglna_; }
  [[nodiscard]] BpSigmaDelta& modulator() { return modulator_; }
  [[nodiscard]] const BpSigmaDelta& modulator() const { return modulator_; }

  // Captures run as a one-lane rf::ReceiverBatch on this chip, on the
  // calling thread. Each starts from reset dynamic state (resonators,
  // delay line, digital filters) and draws the chip's own noise streams,
  // advancing each by one deviate per stimulus sample it is read on; the
  // next capture continues the streams from there, as the ATE's
  // successive measurements of one chip would.

  /// Drives the analog path with `rf` (more than `settle` samples) and
  /// returns the modulator outputs after the first `settle`.
  [[nodiscard]] ModulatorCapture capture_modulator(std::span<const double> rf,
                                                   std::size_t settle =
                                                       kSettleSamples);

  /// Runs the full receive chain over all of `rf`; `settle_baseband`
  /// leading baseband samples are discarded on top of the analog settle
  /// time.
  [[nodiscard]] ReceiverCapture capture_receiver(std::span<const double> rf,
                                                 std::size_t settle =
                                                     kSettleSamples,
                                                 std::size_t settle_baseband =
                                                     16);

 private:
  const Standard* standard_;
  ReceiverConfig config_{};
  Vglna vglna_;
  BpSigmaDelta modulator_;
};

/// Number of input samples needed for a receiver capture that yields
/// `baseband_points` decimated samples.
[[nodiscard]] std::size_t receiver_input_length(std::size_t baseband_points,
                                                std::size_t settle =
                                                    Receiver::kSettleSamples,
                                                std::size_t settle_baseband =
                                                    16);

/// Single-tone RF stimulus for `standard`: power `dbm`, frequency
/// F0 + `offset_hz` (default: 16 bins of an 8192-point FFT at fs, so the
/// tone is in-band but off the exact fs/4 line and limiter harmonics fold
/// outside the metrology band).
[[nodiscard]] dsp::ToneGenerator test_tone(const Standard& standard,
                                           double dbm,
                                           double offset_hz = -1.0);

/// The first `n` samples of test_tone().
[[nodiscard]] std::vector<double> make_test_tone(const Standard& standard,
                                                 double dbm, std::size_t n,
                                                 double offset_hz = -1.0);

/// Two-tone SFDR stimulus: equal powers `dbm_per_tone`, spacing
/// `spacing_hz` centered on F0 + offset (paper: 10 MHz spacing).
[[nodiscard]] dsp::ToneGenerator two_tone(const Standard& standard,
                                          double dbm_per_tone,
                                          double spacing_hz = 10.0e6);

/// The first `n` samples of two_tone().
[[nodiscard]] std::vector<double> make_two_tone(const Standard& standard,
                                                double dbm_per_tone,
                                                std::size_t n,
                                                double spacing_hz = 10.0e6);

/// Default test-tone offset from F0 for a standard (16 bins of an
/// 8192-point FFT at fs).
[[nodiscard]] double default_tone_offset_hz(const Standard& standard);

}  // namespace analock::rf
