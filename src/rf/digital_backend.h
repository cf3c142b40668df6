// Digital section of the receiver (paper Fig. 4): input slicer, fs/4
// down-conversion mixer, and the decimation filter chain (CIC followed by
// two half-band stages, total decimation 64 = the metrology OSR).
//
// The digital section has its own 3 programming bits (channel-filter
// selection); the paper excludes them from the locking key because their
// calibration is straightforward, and so do we.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "dsp/cic.h"
#include "dsp/fir.h"
#include "dsp/mixer.h"

namespace analock::rf {

/// Complex baseband capture produced by the digital backend.
struct BasebandCapture {
  std::vector<std::complex<double>> samples;
  double fs_hz = 0.0;  ///< decimated (output) sample rate
};

class DigitalBackend {
 public:
  static constexpr std::size_t kCicStages = 4;
  static constexpr std::size_t kCicFactor = 16;
  static constexpr std::size_t kTotalDecimation = 64;
  /// Input thresholds of the first digital gate (Schmitt-style receiver):
  /// the modulator output only registers as a new logic level when it
  /// crosses +/-kLogicVih; anything weaker holds the previous bit. A
  /// clocked comparator always swings past the thresholds, but the
  /// sub-threshold analog waveform of an un-clocked comparator (the
  /// paper's "deceptive" invalid key) stutters and freezes here — the
  /// mechanism behind the SNR collapse at the receiver output (Fig. 9).
  static constexpr double kLogicVih = 0.5;
  static constexpr double kLogicVil = -0.5;

  DigitalBackend(double fs_hz, std::uint32_t digital_mode);

  [[nodiscard]] double output_rate_hz() const {
    return fs_hz_ / static_cast<double>(kTotalDecimation);
  }

  /// Channel-filter taps the backend instantiates for a 3-bit mode;
  /// rf::ReceiverBatch builds its lane-parallel chain from the same
  /// design so batched and scalar backends are bit-identical.
  [[nodiscard]] static std::vector<double> channel_taps_for_mode(
      std::uint32_t mode);

  /// Processes a whole modulator capture, discarding `settle_out` leading
  /// baseband samples (filter fill-in).
  [[nodiscard]] BasebandCapture process(std::span<const double> modulator,
                                        std::size_t settle_out = 0);

 private:
  /// Feeds one modulator output sample; returns true and fills `out` when
  /// a baseband sample is produced.
  bool push(double modulator_sample, std::complex<double>& out);

  double fs_hz_;
  double slicer_state_ = -1.0;
  dsp::QuarterRateMixer mixer_;
  dsp::CicDecimator<std::complex<double>> cic_;
  dsp::DecimatingFir<std::complex<double>> hb1_;
  dsp::DecimatingFir<std::complex<double>> hb2_;
  dsp::Fir<std::complex<double>> channel_;
};

}  // namespace analock::rf
