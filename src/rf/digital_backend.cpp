#include "rf/digital_backend.h"

#include <array>

namespace analock::rf {

namespace {

/// Channel-filter cutoff (fraction of the output rate) per 3-bit digital
/// mode. All entries keep the sigma-delta metrology band (+/-0.25 of the
/// output Nyquist) inside the passband; narrower modes suit the
/// narrowband standards.
constexpr std::array<double, 8> kChannelCutoff = {
    0.45, 0.30, 0.30, 0.32, 0.30, 0.30, 0.40, 0.45};

std::vector<double> channel_taps(std::uint32_t mode) {
  return dsp::design_lowpass(kChannelCutoff[mode & 7u] / 2.0, 31,
                             dsp::WindowKind::kHamming);
}

}  // namespace

std::vector<double> DigitalBackend::channel_taps_for_mode(
    std::uint32_t mode) {
  return channel_taps(mode);
}

DigitalBackend::DigitalBackend(double fs_hz, std::uint32_t digital_mode)
    : fs_hz_(fs_hz),
      cic_(kCicStages, kCicFactor),
      hb1_(dsp::design_halfband(23), 2),
      hb2_(dsp::design_halfband(23), 2),
      channel_(channel_taps(digital_mode)) {}

bool DigitalBackend::push(double modulator_sample, std::complex<double>& out) {
  // First digital gate: Schmitt-style slicing of whatever the analog
  // section produced; sub-threshold swings hold the previous level.
  if (modulator_sample > kLogicVih) {
    slicer_state_ = 1.0;
  } else if (modulator_sample < kLogicVil) {
    slicer_state_ = -1.0;
  }
  const std::complex<double> bb = mixer_.mix(slicer_state_);
  std::complex<double> y;
  if (!cic_.push(bb, y)) return false;
  std::complex<double> z;
  if (!hb1_.push(y, z)) return false;
  std::complex<double> w;
  if (!hb2_.push(z, w)) return false;
  out = channel_.process(w);
  return true;
}

BasebandCapture DigitalBackend::process(std::span<const double> modulator,
                                        std::size_t settle_out) {
  BasebandCapture capture;
  capture.fs_hz = output_rate_hz();
  capture.samples.reserve(modulator.size() / kTotalDecimation + 1);
  std::complex<double> y;
  std::size_t produced = 0;
  for (const double x : modulator) {
    if (push(x, y)) {
      if (produced >= settle_out) capture.samples.push_back(y);
      ++produced;
    }
  }
  return capture;
}

}  // namespace analock::rf
