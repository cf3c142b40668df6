// Unit tests for the modulator's bias-programmable blocks.
#include <gtest/gtest.h>

#include <cmath>

#include "rf/sd_blocks.h"

namespace {

using namespace analock;
using namespace analock::rf;

TEST(BiasCurve, RangeAndUnityPoint) {
  // Starved at code 0 (leakage floor), full overdrive 1.75 at code 63,
  // unity bias near code 46.
  EXPECT_DOUBLE_EQ(bias_multiplier(0), 0.01);
  EXPECT_DOUBLE_EQ(bias_multiplier(63), 1.75);
  EXPECT_NEAR(bias_multiplier(46), 1.0, 0.03);
}

TEST(BiasCurve, LowCodesStarveTheBlock) {
  EXPECT_LT(bias_multiplier(8), 0.05);
  EXPECT_LT(bias_multiplier(16), 0.25);
}

TEST(BiasCurve, MonotoneAboveTheFloor) {
  for (std::uint32_t c = 5; c <= 63; ++c) {
    EXPECT_GT(bias_multiplier(c), bias_multiplier(c - 1));
  }
}

TEST(BiasCurve, InverseRoundTrip) {
  // Exact above the leakage floor (codes >= 4).
  for (std::uint32_t c = 7; c <= 63; c += 7) {
    EXPECT_EQ(bias_code_for_multiplier(bias_multiplier(c)), c);
  }
}

TEST(BiasCurve, InverseClamps) {
  EXPECT_EQ(bias_code_for_multiplier(0.0), 0u);
  EXPECT_EQ(bias_code_for_multiplier(5.0), 63u);
}

TEST(CubicSoft, UnitSmallSignalGain) {
  EXPECT_NEAR(cubic_soft(1e-6, 2.4) / 1e-6, 1.0, 1e-9);
}

TEST(CubicSoft, MonotoneAndClamped) {
  double prev = -1e9;
  for (double x = -5.0; x <= 5.0; x += 0.01) {
    const double y = cubic_soft(x, 2.4);
    EXPECT_GE(y, prev - 1e-12);
    prev = y;
  }
  // Beyond the inflection the output is pinned.
  EXPECT_DOUBLE_EQ(cubic_soft(2.0, 2.4), cubic_soft(5.0, 2.4));
}

TEST(Transconductor, GainFollowsBias) {
  Transconductor gm(sim::ProcessVariation::nominal(), sim::Rng(1));
  gm.set_bias(16);
  const double low = gm.effective_gm();
  gm.set_bias(63);
  const double high = gm.effective_gm();
  EXPECT_NEAR(high / low, bias_multiplier(63) / bias_multiplier(16), 0.01);
  gm.set_bias(0);
  EXPECT_LT(gm.effective_gm(), 0.05) << "starved transconductor is dead";
}

TEST(Transconductor, DisabledOutputsZero) {
  Transconductor gm(sim::ProcessVariation::nominal(), sim::Rng(1));
  gm.set_enabled(false);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(gm.process(0.5), 0.0);
}

TEST(Transconductor, ProcessVariationScalesGm) {
  sim::ProcessVariation pv;
  pv.gmin_rel = 0.1;
  Transconductor gm(pv, sim::Rng(1));
  gm.set_bias(32);
  Transconductor nom(sim::ProcessVariation::nominal(), sim::Rng(1));
  nom.set_bias(32);
  EXPECT_NEAR(gm.effective_gm() / nom.effective_gm(), 1.1, 1e-9);
}

TEST(Transconductor, NoiseFloorDropsWithBias) {
  // Average output power with zero input is the noise; more bias current
  // means less noise in the model.
  auto measure = [](std::uint32_t code) {
    Transconductor gm(sim::ProcessVariation::nominal(), sim::Rng(5));
    gm.set_bias(code);
    double sum = 0.0;
    for (int i = 0; i < 50000; ++i) {
      const double y = gm.process(0.0);
      sum += y * y;
    }
    return sum / 50000.0;
  };
  EXPECT_GT(measure(0), measure(63));
}

TEST(PreAmplifier, GainAndClip) {
  PreAmplifier pre(sim::ProcessVariation::nominal(), sim::Rng(2));
  pre.set_bias(46);  // unity bias point
  EXPECT_NEAR(pre.effective_gain(), 4.0, 0.2);
  EXPECT_LE(std::abs(pre.process(100.0)), PreAmplifier::kRail);
}

TEST(Comparator, ClockedDecisionsAreBinary) {
  Comparator comp(sim::ProcessVariation::nominal(), sim::Rng(3));
  comp.set_bias(32);
  for (int i = 0; i < 100; ++i) {
    const double y = comp.process(0.5 * std::sin(0.3 * i));
    EXPECT_TRUE(y == 1.0 || y == -1.0);
  }
}

TEST(Comparator, UnclockedIsSubThresholdAnalog) {
  Comparator comp(sim::ProcessVariation::nominal(), sim::Rng(3));
  comp.set_clock_enabled(false);
  for (int i = 0; i < 100; ++i) {
    const double y = comp.process(5.0);
    EXPECT_LT(std::abs(y), 0.5)
        << "un-clocked swing must stay below the logic threshold";
    EXPECT_GT(y, 0.3) << "a large input should still saturate near the rail";
  }
}

TEST(Comparator, OffsetShrinksWithBias) {
  sim::ProcessVariation pv;
  pv.comparator_offset = 0.04;
  Comparator comp(pv, sim::Rng(3));
  comp.set_bias(0);
  const double off_low = comp.effective_offset();
  comp.set_bias(63);
  const double off_high = comp.effective_offset();
  EXPECT_GT(off_low, off_high);
}

TEST(Comparator, NoiseHasBiasSweetSpot) {
  Comparator comp(sim::ProcessVariation::nominal(), sim::Rng(3));
  comp.set_bias(0);
  const double n_low = comp.effective_noise_rms();
  comp.set_bias(31);  // multiplier ~1: thermal improved, no kickback yet
  const double n_mid = comp.effective_noise_rms();
  comp.set_bias(63);
  const double n_high = comp.effective_noise_rms();
  EXPECT_LT(n_mid, n_low);
  EXPECT_LT(n_mid, n_high);
}

TEST(FeedbackDac, SlicesAnalogInput) {
  FeedbackDac dac(sim::ProcessVariation::nominal(), sim::Rng(4));
  dac.set_bias(bias_code_for_multiplier(1.0));
  double plus = 0.0;
  double minus = 0.0;
  for (int i = 0; i < 10000; ++i) {
    plus += dac.convert(0.2);    // weak but positive -> +level
    minus += dac.convert(-0.2);
  }
  EXPECT_NEAR(plus / 10000.0, 1.0, 0.05);
  EXPECT_NEAR(minus / 10000.0, -1.0, 0.05);
}

TEST(FeedbackDac, BiasErrorCreatesAsymmetryAndNoise) {
  FeedbackDac good(sim::ProcessVariation::nominal(), sim::Rng(4));
  good.set_bias(bias_code_for_multiplier(1.0));
  FeedbackDac bad(sim::ProcessVariation::nominal(), sim::Rng(4));
  bad.set_bias(0);
  // Asymmetry: |mean(level+ + level-)| larger for the wrong bias.
  auto dc = [](FeedbackDac& dac) {
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
      sum += dac.convert(i % 2 == 0 ? 1.0 : -1.0);
    }
    return std::abs(sum / 20000.0);
  };
  EXPECT_GT(dc(bad) + 0.001, dc(good));
  EXPECT_GT(std::abs(bad.effective_gain() - 1.0),
            std::abs(good.effective_gain() - 1.0));
}

TEST(FractionalDelayLine, IntegerDelayExact) {
  FractionalDelayLine line(0.0);
  line.set_code(15);  // 1.0 samples
  const double seq[] = {1.0, 2.0, 3.0, 4.0, 5.0};
  double last = 0.0;
  for (double x : seq) {
    line.push(x);
    last = line.read();
  }
  EXPECT_DOUBLE_EQ(last, 4.0);  // one sample behind the latest push
}

TEST(FractionalDelayLine, ZeroDelayReadsLatest) {
  FractionalDelayLine line(0.0);
  line.set_code(0);
  line.push(7.0);
  EXPECT_DOUBLE_EQ(line.read(), 7.0);
}

TEST(FractionalDelayLine, FractionalInterpolates) {
  FractionalDelayLine line(0.5);
  line.set_code(0);  // delay = 0.5 samples
  line.push(0.0);
  line.push(10.0);
  EXPECT_DOUBLE_EQ(line.read(), 5.0);
}

TEST(FractionalDelayLine, CodeAddsToParasitic) {
  FractionalDelayLine line(0.35);
  line.set_code(10);
  EXPECT_NEAR(line.total_delay_samples(), 0.35 + 10.0 / 15.0, 1e-12);
}

TEST(FractionalDelayLine, ResetZeroes) {
  FractionalDelayLine line(0.0);
  line.set_code(15);
  line.push(3.0);
  line.push(4.0);
  line.reset();
  EXPECT_DOUBLE_EQ(line.read(), 0.0);
}

TEST(OutputBuffer, GainCodesScaleOutput) {
  OutputBuffer buf(sim::Rng(6));
  buf.set_code(0);
  const double low = buf.process(0.5);
  buf.set_code(15);
  const double high = buf.process(0.5);
  EXPECT_GT(high, low);
  EXPECT_LE(std::abs(buf.process(10.0)), OutputBuffer::kRail);
}

TEST(NoiseRms, PositiveForEveryBiasCode) {
  // rf::ReceiverBatch draws every noise stream a lane reads, while
  // GaussianNoise skips its draw at RMS 0, so no code may reach 0 — not
  // even with the comparator's noise scale at the lowest value a
  // Box-Muller deviate (|z| < 8.6) can give it.
  auto pv = sim::ProcessVariation::nominal();
  pv.comparator_noise_rel = -0.86;
  pv.dac_gain_rel = 0.2;
  const sim::Rng rng(8);
  Transconductor gm(pv, rng.fork("gm"));
  PreAmplifier pre(pv, rng.fork("pre"));
  Comparator cmp(pv, rng.fork("cmp"));
  FeedbackDac dac(pv, rng.fork("dac"));
  for (std::uint32_t code = 0; code <= 63; ++code) {
    gm.set_bias(code);
    pre.set_bias(code);
    cmp.set_bias(code);
    dac.set_bias(code);
    EXPECT_GT(gm.noise_rms(), 0.0) << code;
    EXPECT_GT(pre.noise_rms(), 0.0) << code;
    EXPECT_GT(cmp.noise_rms(), 0.0) << code;
    EXPECT_GT(dac.noise_rms(), 0.0) << code;
  }
  EXPECT_GT(OutputBuffer(rng).noise_rms(), 0.0);
}

}  // namespace
