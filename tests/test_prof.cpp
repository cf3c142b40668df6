// Tests for the profiling layer (src/obs/prof/): counter open/fallback,
// harness statistics on known inputs, span-tree folding, and the
// BENCH_*.json document structure.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/prof/prof.h"

namespace {

using namespace analock;

// The harness reads its environment once (prof::bench_env is a
// singleton), so pin every knob before the first test touches it:
// deterministic rep counts, no artifacts dropped into the test cwd, and
// the chrono fallback so results do not depend on PMU availability.
const bool kEnvPinned = [] {
  setenv("ANALOCK_BENCH_JSON", "0", 1);
  setenv("ANALOCK_BENCH_REPS", "3", 1);
  setenv("ANALOCK_BENCH_WARMUP", "0", 1);
  setenv("ANALOCK_BENCH_TRIALS", "2", 1);
  setenv("ANALOCK_PERF", "0", 1);
  return true;
}();

// ----------------------------------------------------------- statistics

TEST(ProfStats, KnownSamplesOddCount) {
  const prof::Stats s = prof::compute_stats({4.0, 1.0, 100.0, 3.0, 2.0});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  // deviations from 3: {2,1,97,0,1} -> sorted {0,1,1,2,97} -> MAD 1.
  EXPECT_DOUBLE_EQ(s.mad, 1.0);
  // nearest-rank p95 of 5 samples is the maximum.
  EXPECT_DOUBLE_EQ(s.p95, 100.0);
}

TEST(ProfStats, KnownSamplesEvenCount) {
  const prof::Stats s = prof::compute_stats({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  // deviations from 2.5: {1.5,0.5,0.5,1.5} -> MAD (0.5+1.5)/2 = 1.
  EXPECT_DOUBLE_EQ(s.mad, 1.0);
  EXPECT_DOUBLE_EQ(s.p95, 4.0);
}

TEST(ProfStats, EmptyAndSingleton) {
  EXPECT_EQ(prof::compute_stats({}).n, 0u);
  const prof::Stats s = prof::compute_stats({7.5});
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.median, 7.5);
  EXPECT_DOUBLE_EQ(s.mad, 0.0);
  EXPECT_DOUBLE_EQ(s.p95, 7.5);
}

// ----------------------------------------------------------- environment

TEST(ProfEnv, TrialsBudgetHonorsPinnedEnvironment) {
  ASSERT_TRUE(kEnvPinned);
  EXPECT_EQ(prof::trials_budget(100), 2u);
  EXPECT_EQ(prof::trials_budget(7), 2u);
  EXPECT_EQ(prof::bench_env().reps_override, 3);
  EXPECT_TRUE(prof::bench_env().force_chrono);
  EXPECT_TRUE(prof::bench_env().json_disabled);
}

// -------------------------------------------------------------- counters

TEST(ProfCounters, ForcedChronoFallback) {
  const prof::PerfCounters pc(/*force_chrono=*/true);
  EXPECT_EQ(pc.mode(), prof::CounterMode::kChrono);
  EXPECT_FALSE(pc.hardware());
  EXPECT_FALSE(pc.degrade_reason().empty());
  EXPECT_STREQ(prof::to_string(pc.mode()), "chrono");

  const prof::CounterValues a = pc.read();
  const prof::CounterValues b = pc.read();
  EXPECT_GE(b.wall_ns, a.wall_ns);
  EXPECT_EQ(a.cycles, 0u);
  EXPECT_EQ(a.task_clock_ns, 0u);
}

TEST(ProfCounters, BestAvailableModeIsCoherent) {
  const prof::PerfCounters pc;  // whatever the environment allows
  if (pc.mode() == prof::CounterMode::kHardware) {
    EXPECT_TRUE(pc.degrade_reason().empty());
  } else {
    EXPECT_FALSE(pc.degrade_reason().empty());
  }
  // Burn a few instructions between two reads; whatever was measured
  // must be non-negative and wall time must advance monotonically.
  const prof::CounterValues a = pc.read();
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) sink += i;
  prof::do_not_optimize(sink);
  const prof::CounterValues d = pc.read() - a;
  EXPECT_GE(d.wall_ns, 0.0);
  if (pc.hardware()) {
    EXPECT_GT(d.instructions, 0u);
  }
}

TEST(ProfCounters, SectionDeltaAndArithmetic) {
  const prof::PerfCounters pc(/*force_chrono=*/true);
  const prof::CounterSection section(pc);
  const prof::CounterValues d = section.delta();
  EXPECT_GE(d.wall_ns, 0.0);

  prof::CounterValues x;
  x.cycles = 10;
  x.instructions = 30;
  prof::CounterValues y;
  y.cycles = 4;
  y.instructions = 10;
  const prof::CounterValues sum = x + y;
  EXPECT_EQ(sum.cycles, 14u);
  const prof::CounterValues diff = x - y;
  EXPECT_EQ(diff.cycles, 6u);
  EXPECT_DOUBLE_EQ(x.ipc(), 3.0);
  EXPECT_DOUBLE_EQ(prof::CounterValues{}.ipc(), 0.0);
}

// ---------------------------------------------------------- span folding

class ProfSpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry& reg = obs::registry();
    reg.reset_values();
    reg.set_enabled(true);
    reg.set_clock(&clock_);
  }

  void TearDown() override {
    obs::Registry& reg = obs::registry();
    reg.set_clock(nullptr);
    reg.set_enabled(false);
    reg.reset_values();
  }

  obs::FakeClock clock_{100};  // each reading advances 100 ns
};

TEST_F(ProfSpanTest, FoldsNestedSpansWithSelfVsTotal) {
  for (int i = 0; i < 2; ++i) {
    ANALOCK_SPAN("prof.outer");
    clock_.advance_ns(1000);
    {
      ANALOCK_SPAN("prof.inner");
      clock_.advance_ns(5000);
    }
    clock_.advance_ns(1000);
  }

  const auto nodes = obs::registry().span_tree();
  ASSERT_EQ(nodes.size(), 2u);
  const auto& outer = nodes[0];
  const auto& inner = nodes[1];
  EXPECT_EQ(outer.path, "prof.outer");
  EXPECT_EQ(outer.name, "prof.outer");
  EXPECT_EQ(outer.depth, 0);
  EXPECT_EQ(outer.calls, 2u);
  EXPECT_EQ(inner.path, "prof.outer;prof.inner");
  EXPECT_EQ(inner.name, "prof.inner");
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(inner.calls, 2u);

  // A leaf's self time is its total; the parent's self time excludes the
  // child's total but keeps its own two 1000 ns phases (plus the fixed
  // clock readings, which the FakeClock auto-tick makes deterministic).
  EXPECT_EQ(inner.self_ns, inner.total_ns);
  EXPECT_GE(inner.total_ns, 2u * 5000u);
  EXPECT_GT(outer.total_ns, inner.total_ns);
  EXPECT_EQ(outer.self_ns, outer.total_ns - inner.total_ns);
}

// Spans outside a harness's measured reps stay out of its profile and
// folded stacks, though the registry's whole-run tree has them.
TEST_F(ProfSpanTest, DetachedProfilerRecordsNothing) {
  {
    ANALOCK_SPAN("prof.unattached");
    clock_.advance_ns(500);
  }
  prof::Harness h("test_prof_detached");
  h.add_case("quiet", [] {});
  EXPECT_EQ(h.run(), 0);
  EXPECT_TRUE(h.profile().empty());
  EXPECT_TRUE(h.folded().empty());
  ASSERT_EQ(obs::registry().span_tree().size(), 1u);
  EXPECT_EQ(obs::registry().span_tree()[0].path, "prof.unattached");
}

TEST_F(ProfSpanTest, ResetDropsAggregatedNodes) {
  { ANALOCK_SPAN("prof.reset"); }
  EXPECT_EQ(obs::registry().span_tree().size(), 1u);
  obs::registry().reset_values();
  EXPECT_TRUE(obs::registry().span_tree().empty());
}

// --------------------------------------------------------------- harness

class ProfHarnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(kEnvPinned);
    obs::Registry& reg = obs::registry();
    reg.set_enabled(true);
    reg.set_clock(&clock_);
  }

  void TearDown() override {
    obs::Registry& reg = obs::registry();
    reg.set_clock(nullptr);
    reg.set_enabled(false);
  }

  // 1 ms per clock reading: a rep's wall delta is exactly one tick.
  obs::FakeClock clock_{1000000};
};

TEST_F(ProfHarnessTest, RunsPinnedRepsWithDeterministicStats) {
  prof::Harness h("test_prof_harness");
  int calls = 0;
  prof::CaseOptions opts;
  opts.ops_per_rep = 10.0;
  h.add_case("counted", [&calls] { ++calls; }, opts);
  EXPECT_EQ(h.run(), 0);

  // ANALOCK_BENCH_REPS=3 pins the adaptive loop to exactly three reps.
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(h.results().size(), 1u);
  const prof::CaseResult& r = h.results()[0];
  EXPECT_EQ(r.name, "counted");
  EXPECT_EQ(r.warmups, 0);
  ASSERT_EQ(r.reps.size(), 3u);
  for (std::size_t i = 1; i < r.reps.size(); ++i) {
    EXPECT_GT(r.reps[i].t_ns, r.reps[i - 1].t_ns);
  }
  // Each rep spans one CounterSection reading pair = one 1 ms tick.
  EXPECT_DOUBLE_EQ(r.wall_ms.median, 1.0);
  EXPECT_DOUBLE_EQ(r.wall_ms.mad, 0.0);
  EXPECT_EQ(r.wall_ms.n, 3u);
}

TEST_F(ProfHarnessTest, WarmupOptionOverridesEnvAndSkipsProfile) {
  obs::registry().reset_values();
  prof::Harness h("test_prof_warmup");
  int calls = 0;
  prof::CaseOptions opts;
  opts.warmup = 2;
  h.add_case("warm", [&calls] {
    ANALOCK_SPAN("prof.warm");
    ++calls;
  }, opts);
  EXPECT_EQ(h.run(), 0);
  EXPECT_EQ(calls, 2 + 3);  // two warmups + three measured reps
  EXPECT_EQ(h.results()[0].warmups, 2);

  // The profile holds the measured reps only; the whole-run tree also
  // counts the warmups.
  const auto profile = h.profile();
  ASSERT_EQ(profile.size(), 1u);
  EXPECT_EQ(profile[0].path, "prof.warm");
  EXPECT_EQ(profile[0].calls, 3u);
  const auto tree = obs::registry().span_tree();
  ASSERT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree[0].calls, 5u);
}

TEST_F(ProfHarnessTest, JsonDocumentStructure) {
  prof::Harness h("test_prof_json");
  prof::CaseOptions opts;
  opts.notes.emplace_back("paper_minutes", 20.0);
  h.add_case("spanning", [] {
    ANALOCK_SPAN("prof.case");
    { ANALOCK_SPAN("prof.case.sub"); }
  }, opts);
  EXPECT_EQ(h.run(), 0);

  const std::string json = h.json();
  EXPECT_NE(json.find("\"schema\":\"analock-bench\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"test_prof_json\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"spanning\""), std::string::npos);
  EXPECT_NE(json.find("\"counter_mode\":\"chrono\""), std::string::npos);
  EXPECT_NE(json.find("\"trials_budget\":2"), std::string::npos);
  EXPECT_NE(json.find("\"notes\":{\"paper_minutes\":20}"),
            std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\":{\"n\":3"), std::string::npos);
  // Chrono mode: per-case counters stay an empty object and the profile
  // spans carry timing only.
  EXPECT_NE(json.find("\"counters\":{}"), std::string::npos);
  EXPECT_EQ(json.find("\"self_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"prof.case;prof.case.sub\""),
            std::string::npos);

  const std::string folded = h.folded();
  EXPECT_NE(folded.find("prof.case;prof.case.sub "), std::string::npos);
}

}  // namespace
