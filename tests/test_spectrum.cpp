// Unit tests for the spectral metrology (the paper's measurement core).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "dsp/spectrum.h"
#include "dsp/tonegen.h"
#include "sim/rng.h"

namespace {

using namespace analock::dsp;

std::vector<double> sine(double freq, double fs, double amp, std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amp * std::sin(2.0 * std::numbers::pi * freq *
                          static_cast<double>(i) / fs);
  }
  return x;
}

TEST(Periodogram, ParsevalForNoise) {
  analock::sim::Rng rng(1);
  const std::size_t n = 4096;
  std::vector<double> x(n);
  double ms = 0.0;
  for (auto& v : x) {
    v = rng.gaussian();
    ms += v * v;
  }
  ms /= static_cast<double>(n);
  const Periodogram p(x, 1.0e6);
  double total = 0.0;
  for (const double b : p.power()) total += b;
  EXPECT_NEAR(total, ms, 0.05 * ms);  // windowed estimate, ~5%
}

TEST(Periodogram, SinePowerRecovered) {
  const double fs = 1.0e6;
  const double amp = 0.7;
  // On-bin tone: 8192 * 100/8192.
  const auto x = sine(100.0 * fs / 8192.0, fs, amp, 8192);
  const Periodogram p(x, fs);
  const auto tone = p.tone_power(100.0 * fs / 8192.0);
  EXPECT_NEAR(tone.power, amp * amp / 2.0, 0.02 * amp * amp);
}

TEST(Periodogram, OffBinSinePowerStillRecovered) {
  const double fs = 1.0e6;
  const double amp = 0.5;
  // Half-bin offset: worst-case leakage for the lobe integration.
  const auto x = sine(100.5 * fs / 8192.0, fs, amp, 8192);
  const Periodogram p(x, fs);
  const auto tone = p.tone_power(100.5 * fs / 8192.0);
  EXPECT_NEAR(tone.power, amp * amp / 2.0, 0.1 * amp * amp);
}

TEST(Periodogram, BinMapping) {
  std::vector<double> x(1024, 0.0);
  const Periodogram p(x, 1024.0);  // 1 Hz per bin
  EXPECT_EQ(p.bin_of(100.0), 100u);
  EXPECT_NEAR(p.freq_of(100), 100.0, 1e-9);
  EXPECT_NEAR(p.bin_hz(), 1.0, 1e-12);
}

TEST(Periodogram, ComplexNegativeFrequencyMapping) {
  std::vector<cplx> x(1024, cplx{0.0, 0.0});
  const Periodogram p(x, 1024.0);
  EXPECT_EQ(p.bin_of(-1.0), 1023u);
  EXPECT_NEAR(p.freq_of(1023), -1.0, 1e-9);
}

TEST(Periodogram, ComplexToneAtNegativeFrequency) {
  const std::size_t n = 1024;
  const double fs = 1024.0;
  std::vector<cplx> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase =
        -2.0 * std::numbers::pi * 50.0 * static_cast<double>(i) / fs;
    x[i] = {0.3 * std::cos(phase), 0.3 * std::sin(phase)};
  }
  const Periodogram p(x, fs);
  const auto tone = p.tone_power(-50.0);
  EXPECT_NEAR(tone.power, 0.09, 0.01);
}

TEST(Periodogram, BandPowerWrapsThroughDc) {
  // Complex spectrum band [-2, 2] Hz must wrap through bin 0.
  const std::size_t n = 256;
  std::vector<cplx> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = {1.0, 0.0};  // DC
  const Periodogram p(x, 256.0);
  const double pw = p.band_power(-2.0, 2.0);
  EXPECT_NEAR(pw, 1.0, 0.05);
}

TEST(MeasureSnr, KnownSnrRecovered) {
  analock::sim::Rng rng(4);
  const double fs = 1.0e6;
  const double amp = 1.0;
  const double noise_rms = 0.01;
  const std::size_t n = 8192;
  auto x = sine(1000.0 * fs / 8192.0, fs, amp, n);
  for (auto& v : x) v += rng.gaussian(0.0, noise_rms);
  const Periodogram p(x, fs);
  // Full-band SNR: signal (0.5) over noise (1e-4) = 37 dB.
  const auto snr = measure_snr(p, 1000.0 * fs / 8192.0, 0.0, fs / 2.0);
  EXPECT_NEAR(snr.snr_db, 37.0, 1.0);
  EXPECT_TRUE(snr.signal_found);
}

TEST(MeasureSnr, BandLimitingRaisesSnr) {
  analock::sim::Rng rng(4);
  const double fs = 1.0e6;
  const std::size_t n = 8192;
  auto x = sine(1000.0 * fs / 8192.0, fs, 0.1, n);
  for (auto& v : x) v += rng.gaussian(0.0, 0.05);
  const Periodogram p(x, fs);
  const double f_sig = 1000.0 * fs / 8192.0;
  const auto wide = measure_snr(p, f_sig, 0.0, fs / 2.0);
  // Band 1/16 of Nyquist: noise drops ~12 dB.
  const auto narrow =
      measure_snr(p, f_sig, f_sig - fs / 64.0, f_sig + fs / 64.0);
  EXPECT_NEAR(narrow.snr_db - wide.snr_db, 12.0, 1.5);
}

TEST(MeasureSnr, BuriedSignalReportsNotFound) {
  analock::sim::Rng rng(4);
  const double fs = 1.0e6;
  std::vector<double> x(8192);
  for (auto& v : x) v = rng.gaussian(0.0, 1.0);  // noise only
  const Periodogram p(x, fs);
  const auto snr = measure_snr(p, 1000.0 * fs / 8192.0, 0.0, fs / 2.0);
  EXPECT_FALSE(snr.signal_found);
  EXPECT_LT(snr.snr_db, 0.0);
}

TEST(MeasureSnr, SubFloorRatioClampsToLockedHardFloor) {
  // A vanishing tone next to a strong in-band one: the located signal
  // power is positive but more than 200 dB below the in-band noise.
  const double fs = 1.0e6;
  const std::size_t n = 8192;
  const double f_sig = 100.0 * fs / 8192.0;
  auto x = sine(f_sig, fs, 1e-12, n);
  const auto blocker = sine(3000.0 * fs / 8192.0, fs, 1.0, n);
  for (std::size_t i = 0; i < n; ++i) x[i] += blocker[i];
  const Periodogram p(x, fs);
  const auto snr = measure_snr(p, f_sig, 0.0, fs / 2.0);
  ASSERT_GT(snr.signal_power, 0.0);
  ASSERT_LT(snr.signal_power / snr.noise_power, 1e-20);
  EXPECT_EQ(snr.snr_db, -200.0);
}

TEST(MeasureSnrOsr, MatchesManualBand) {
  analock::sim::Rng rng(8);
  const double fs = 12.0e9;
  const double f0 = fs / 4.0;
  const double f_sig = f0 + 16.0 * fs / 8192.0;
  auto x = sine(f_sig, fs, 0.4, 8192);
  for (auto& v : x) v += rng.gaussian(0.0, 0.02);
  const Periodogram p(x, fs);
  const double half = fs / (4.0 * 64.0);
  const auto manual = measure_snr(p, f_sig, f0 - half, f0 + half);
  const auto osr = measure_snr_osr(p, f_sig, f0, 64.0);
  EXPECT_NEAR(manual.snr_db, osr.snr_db, 1e-9);
}

TEST(MeasureSfdr, TwoToneIm3Detected) {
  const double fs = 1.0e6;
  const std::size_t n = 16384;
  const double f1 = 3000.0 * fs / 16384.0;
  const double f2 = 3200.0 * fs / 16384.0;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    const double v = 0.4 * std::sin(2.0 * std::numbers::pi * f1 * t) +
                     0.4 * std::sin(2.0 * std::numbers::pi * f2 * t);
    x[i] = v + 0.05 * v * v * v;  // cubic distortion -> IM3
  }
  const Periodogram p(x, fs);
  const auto sfdr = measure_sfdr_two_tone(p, f1, f2, 0.0, fs / 2.0);
  // IM3/carrier for y = v + a3 v^3: (3/4) a3 A^2 = 0.006 -> -44.4 dB.
  EXPECT_NEAR(sfdr.im3_db, 44.4, 2.0);
  EXPECT_GT(sfdr.fundamental_power, 0.05);
  // The strongest spur IS the IM3 product here, so the two measurements
  // agree (both lobe-integrated).
  EXPECT_NEAR(sfdr.sfdr_db, sfdr.im3_db, 1.0);
}

TEST(MeasureSfdr, CleanTonesGiveHighSfdr) {
  analock::sim::Rng rng(2);
  const double fs = 1.0e6;
  const std::size_t n = 16384;
  const double f1 = 3000.0 * fs / 16384.0;
  const double f2 = 3200.0 * fs / 16384.0;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = 0.4 * std::sin(2.0 * std::numbers::pi * f1 * t) +
           0.4 * std::sin(2.0 * std::numbers::pi * f2 * t) +
           rng.gaussian(0.0, 1e-4);
  }
  const Periodogram p(x, fs);
  const auto sfdr = measure_sfdr_two_tone(p, f1, f2, 0.0, fs / 2.0);
  EXPECT_GT(sfdr.sfdr_db, 55.0);
}

TEST(Enob, KnownMapping) {
  EXPECT_NEAR(snr_to_enob(7.78), 1.0, 1e-9);
  EXPECT_NEAR(snr_to_enob(49.92), 8.0, 1e-9);
}

}  // namespace
