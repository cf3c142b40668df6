// Tests for the observability subsystem (src/obs/): metric arithmetic,
// histogram quantiles, span nesting against a fake clock, JSONL
// formatting with escaping + full parse-back, and run-to-run determinism.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "obs/obs.h"

namespace {

using namespace analock;

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser, just rich enough to
// round-trip the sink's output. Any malformed line is a test failure.
// ---------------------------------------------------------------------------

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonObject> v;

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(v);
  }
  [[nodiscard]] double num() const { return std::get<double>(v); }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(v);
  }
  [[nodiscard]] const JsonObject& obj() const { return std::get<JsonObject>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  /// Parses one complete JSON value; fails the test on any error or
  /// trailing garbage.
  JsonValue parse() {
    const JsonValue v = value();
    skip_ws();
    EXPECT_EQ(pos_, text_.size()) << "trailing garbage in: " << text_;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    EXPECT_LT(pos_, text_.size()) << "unexpected end of input";
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void expect(char c) {
    EXPECT_EQ(peek(), c) << "at offset " << pos_ << " in: " << text_;
    ++pos_;
  }

  bool consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return JsonValue{object()};
      case '"': return JsonValue{string()};
      case 't': EXPECT_TRUE(consume("true")); return JsonValue{true};
      case 'f': EXPECT_TRUE(consume("false")); return JsonValue{false};
      case 'n': EXPECT_TRUE(consume("null")); return JsonValue{nullptr};
      default: return JsonValue{number()};
    }
  }

  JsonObject object() {
    JsonObject out;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      out.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      EXPECT_LT(pos_, text_.size()) << "unterminated string";
      if (pos_ >= text_.size()) return out;
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          const std::string hex(text_.substr(pos_, 4));
          pos_ += 4;
          const unsigned code =
              static_cast<unsigned>(std::stoul(hex, nullptr, 16));
          EXPECT_LT(code, 0x80u) << "only ASCII \\u escapes are emitted";
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          ADD_FAILURE() << "bad escape \\" << esc << " in: " << text_;
      }
    }
  }

  double number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    EXPECT_GT(pos_, start) << "expected number at offset " << start;
    return std::stod(std::string(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(std::string_view line) { return JsonParser(line).parse(); }

/// Everything written to the temporary file `f`; closes it.
std::string slurp(std::FILE* f) {
  std::rewind(f);
  std::string text;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    text.push_back(static_cast<char>(c));
  }
  std::fclose(f);
  return text;
}

// ---------------------------------------------------------------------------
// Counters, gauges, histograms (standalone objects — no global state).
// ---------------------------------------------------------------------------

TEST(ObsCounter, AddAndReset) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, SetAndReset) {
  obs::Gauge g;
  g.set(-3.5);
  EXPECT_DOUBLE_EQ(g.value(), -3.5);
  g.set(7.25);
  EXPECT_DOUBLE_EQ(g.value(), 7.25);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsHistogram, BasicStatistics) {
  obs::Histogram h({1.0, 2.0, 4.0, 8.0});
  for (const double v : {0.5, 1.5, 3.0, 3.5, 7.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 15.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 7.0);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.mean(), 3.1);
  // Quantiles are bucket-interpolated; they must stay inside the observed
  // range and be monotone in q.
  EXPECT_GE(snap.p50, h.min());
  EXPECT_LE(snap.p50, h.max());
  EXPECT_LE(snap.p50, snap.p95);
  EXPECT_LE(snap.p95, h.max());
}

TEST(ObsHistogram, QuantileEdgeCases) {
  obs::Histogram h({1.0, 10.0, 100.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  h.observe(5.0);
  // Single observation: every quantile is that value.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
  // Values beyond the last edge land in the overflow bucket and report
  // as the observed max, not infinity.
  h.observe(1e6);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e6);
  EXPECT_LE(h.quantile(0.99), 1e6);
}

TEST(ObsHistogram, ResetClearsInPlace) {
  obs::Histogram h(obs::Histogram::exponential_bounds(1.0, 2.0, 8));
  h.observe(3.0);
  h.observe(100.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.observe(2.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
}

TEST(ObsHistogram, ExponentialBounds) {
  const auto b = obs::Histogram::exponential_bounds(0.001, 2.0, 5);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_DOUBLE_EQ(b[0], 0.001);
  for (std::size_t i = 1; i < b.size(); ++i) {
    EXPECT_DOUBLE_EQ(b[i], b[i - 1] * 2.0);
  }
}

// ---------------------------------------------------------------------------
// Registry behavior on an isolated instance.
// ---------------------------------------------------------------------------

TEST(ObsRegistry, StableReferencesSurviveResetValues) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("trials");
  obs::Histogram& h = reg.histogram("eval");
  c.add(10);
  h.observe(1.25);
  reg.record_span("eval", "eval", 0, 1250000, 1250000, {});
  reg.reset_values();
  // Same objects, zeroed in place; the span tree starts over.
  EXPECT_EQ(&reg.counter("trials"), &c);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(reg.span_tree().empty());
  c.add(1);
  EXPECT_EQ(reg.counter("trials").value(), 1u);
}

TEST(ObsRegistry, SnapshotsAreSortedByName) {
  obs::Registry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(2);
  reg.gauge("mid").set(0.5);
  const auto counters = reg.counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "alpha");
  EXPECT_EQ(counters[1].first, "zeta");
  EXPECT_EQ(counters[0].second, 2u);
  const auto gauges = reg.gauges();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(gauges[0].second, 0.5);
}

TEST(ObsRegistry, SpanTreeIsDepthFirst) {
  obs::Registry reg;
  // Recorded out of order, and "a.x" sorts between "a" and "a;b" in
  // plain byte order: the tree must still list each subtree under its
  // root.
  reg.record_span("a.x", "a.x", 0, 10, 10, {});
  reg.record_span("a;b", "b", 1, 4, 4, {});
  reg.record_span("a", "a", 0, 9, 5, {});
  reg.record_span("a;b", "b", 1, 6, 6, {});
  const auto tree = reg.span_tree();
  ASSERT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree[0].path, "a");
  EXPECT_EQ(tree[1].path, "a;b");
  EXPECT_EQ(tree[2].path, "a.x");
  EXPECT_EQ(tree[1].name, "b");
  EXPECT_EQ(tree[1].depth, 1);
  EXPECT_EQ(tree[1].calls, 2u);
  EXPECT_EQ(tree[1].total_ns, 10u);
  EXPECT_EQ(tree[1].self_ns, 10u);
  EXPECT_EQ(tree[1].dur_ms.count, 2u);
  EXPECT_NEAR(tree[1].dur_ms.max, 6e-6, 1e-15);
}

TEST(ObsRegistry, InjectedClockDrivesTimestamps) {
  obs::Registry reg;
  obs::FakeClock clock;
  clock.set_ns(1000);
  reg.set_clock(&clock);
  EXPECT_EQ(reg.now_ns(), 1000u);
  clock.advance_ns(234);
  EXPECT_EQ(reg.now_ns(), 1234u);
  reg.set_clock(nullptr);  // back to the steady clock — just must not crash
  (void)reg.now_ns();
}

// ---------------------------------------------------------------------------
// Spans and events against the GLOBAL registry (that is what the macros
// use). The fixture saves and restores the global state so the other
// test binaries' assumptions hold no matter the ordering.
// ---------------------------------------------------------------------------

class ObsSpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry& reg = obs::registry();
    was_enabled_ = reg.enabled();
    reg.reset_values();
    reg.set_clock(&clock_);
    reg.set_enabled(true);
    auto sink = std::make_unique<obs::CollectorSink>();
    collector_ = sink.get();
    reg.set_sink(std::move(sink));
  }

  void TearDown() override {
    obs::Registry& reg = obs::registry();
    reg.set_sink(nullptr);
    reg.set_clock(nullptr);
    reg.set_enabled(was_enabled_);
    reg.reset_values();
  }

  obs::FakeClock clock_{100};  // each reading advances 100 ns
  obs::CollectorSink* collector_ = nullptr;
  bool was_enabled_ = false;
};

TEST_F(ObsSpanTest, SpanRecordsDurationFromFakeClock) {
  clock_.set_ns(5000);
  {
    ANALOCK_SPAN("unit.outer");
    clock_.advance_ns(40000);
  }
  const auto events = collector_->events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].type, "span");
  EXPECT_EQ(events[0].name, "unit.outer");
  EXPECT_EQ(events[0].ts_ns, 5000u);  // begin timestamp
  // Duration = 40000 explicit + 100 auto-tick between the two readings.
  EXPECT_DOUBLE_EQ(events[0].dur_ns, 40100.0);
  // And the span tree saw it (duration histogram in ms).
  const auto tree = obs::registry().span_tree();
  ASSERT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree[0].path, "unit.outer");
  EXPECT_EQ(tree[0].calls, 1u);
  EXPECT_EQ(tree[0].total_ns, 40100u);
  EXPECT_EQ(tree[0].dur_ms.count, 1u);
  EXPECT_NEAR(tree[0].dur_ms.max, 40100.0 / 1e6, 1e-12);
}

TEST_F(ObsSpanTest, SpansNestAndRecordDepth) {
  EXPECT_EQ(obs::TraceSpan::current_depth(), 0);
  {
    ANALOCK_SPAN("unit.outer");
    EXPECT_EQ(obs::TraceSpan::current_depth(), 1);
    {
      ANALOCK_SPAN("unit.inner");
      EXPECT_EQ(obs::TraceSpan::current_depth(), 2);
      obs::event("unit.point", {{"k", 1}});
    }
    EXPECT_EQ(obs::TraceSpan::current_depth(), 1);
  }
  EXPECT_EQ(obs::TraceSpan::current_depth(), 0);

  // Events arrive innermost-first (spans emit at destruction).
  const auto events = collector_->events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "unit.point");
  EXPECT_EQ(events[0].depth, 2);
  EXPECT_EQ(events[1].name, "unit.inner");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].name, "unit.outer");
  EXPECT_EQ(events[2].depth, 0);
}

TEST_F(ObsSpanTest, QuietSpanFeedsHistogramWithoutEvent) {
  {
    ANALOCK_SPAN_QUIET("unit.hot");
  }
  EXPECT_TRUE(collector_->events().empty());
  const auto tree = obs::registry().span_tree();
  ASSERT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree[0].path, "unit.hot");
  EXPECT_EQ(tree[0].dur_ms.count, 1u);
}

TEST_F(ObsSpanTest, DisabledRegistryRecordsNothing) {
  obs::registry().set_enabled(false);
  {
    ANALOCK_SPAN("unit.ghost");
    obs::count("unit.ghost.counter");
    obs::event("unit.ghost.event", {{"k", 1}});
  }
  obs::registry().set_enabled(true);
  EXPECT_TRUE(collector_->events().empty());
  // SetUp's reset_values() emptied the tree; the ghost span added
  // nothing to it.
  EXPECT_TRUE(obs::registry().span_tree().empty());
  EXPECT_EQ(obs::registry().counter("unit.ghost.counter").value(), 0u);
}

TEST_F(ObsSpanTest, SummaryRowsAndReportFollowTheTree) {
  {
    ANALOCK_SPAN_QUIET("unit.outer");
    clock_.advance_ns(1000);
    { ANALOCK_SPAN_QUIET("unit.inner"); }
  }
  obs::emit_summary_events(obs::registry());
  std::vector<std::string> paths;
  for (const auto& e : collector_->events()) {
    ASSERT_STREQ(e.type, "summary");
    paths.push_back(e.name);
    bool has_self = false;
    for (const auto& a : e.attrs) has_self = has_self || a.key == "self_ms";
    EXPECT_TRUE(has_self) << e.name;
  }
  EXPECT_EQ(paths,
            (std::vector<std::string>{"unit.outer", "unit.outer;unit.inner"}));

  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  obs::print_report(obs::registry(), out);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("\nunit.outer "), std::string::npos) << text;
  EXPECT_NE(text.find("\n  unit.inner "), std::string::npos) << text;
}

// finish_run() ends the process's run exactly once, so only this test
// may call it.
TEST_F(ObsSpanTest, FinishRunReportsOnceAndDetachesTheSink) {
  { ANALOCK_SPAN("unit.final"); }
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  obs::finish_run(out);
  obs::finish_run(out);
  EXPECT_FALSE(obs::registry().has_sink());
  collector_ = nullptr;  // destroyed with the detached sink
  const std::string text = slurp(out);
  const std::size_t first = text.find("observability report");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("observability report", first + 1), std::string::npos);
}

TEST_F(ObsSpanTest, ConvergenceEmitsOnlyOnImprovement) {
  obs::Convergence conv("unit_attack", "score");
  EXPECT_TRUE(conv.observe(1, 10.0));
  EXPECT_FALSE(conv.observe(2, 5.0));   // worse: no event
  EXPECT_FALSE(conv.observe(3, 10.0));  // tie: no event
  EXPECT_TRUE(conv.observe(4, 11.0));
  EXPECT_DOUBLE_EQ(conv.best(), 11.0);

  const auto events = collector_->events();
  ASSERT_EQ(events.size(), 2u);
  for (const auto& e : events) EXPECT_EQ(e.name, "attack.convergence");
  // Check the (query, best_score) payload of the last improvement.
  std::uint64_t query = 0;
  double best = 0.0;
  for (const auto& a : events[1].attrs) {
    if (a.key == "query") query = static_cast<std::uint64_t>(
        std::get<std::int64_t>(a.value));
    if (a.key == "best_score") best = std::get<double>(a.value);
  }
  EXPECT_EQ(query, 4u);
  EXPECT_DOUBLE_EQ(best, 11.0);
}

TEST_F(ObsSpanTest, DeterministicEventStreamUnderFakeClock) {
  auto run_once = [](std::vector<std::string>& lines) {
    obs::Registry& reg = obs::registry();
    obs::FakeClock clock(50);
    reg.reset_values();
    reg.set_clock(&clock);
    auto sink = std::make_unique<obs::CollectorSink>();
    obs::CollectorSink* collector = sink.get();
    reg.set_sink(std::move(sink));
    {
      ANALOCK_SPAN("det.outer");
      obs::count("det.counter", 3);
      clock.advance_ns(500);
      { ANALOCK_SPAN("det.inner"); }
      obs::event("det.point", {{"v", 2.5}});
    }
    obs::emit_summary_events(reg);
    for (const auto& e : collector->events()) {
      lines.push_back(obs::JsonlSink::format(e));
    }
    reg.set_sink(nullptr);
    reg.set_clock(nullptr);  // `clock` is about to go out of scope
  };

  std::vector<std::string> first, second;
  run_once(first);
  run_once(second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // byte-identical artifacts run after run
}

// ---------------------------------------------------------------------------
// JSONL formatting: escaping and parse-back of every emitted line.
// ---------------------------------------------------------------------------

TEST(ObsJsonl, EscapesSpecialCharacters) {
  std::string out;
  obs::JsonlSink::append_escaped(out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te\\u0001f");
}

TEST(ObsJsonl, FormatsAndParsesBackEveryAttrType) {
  obs::Event e;
  e.ts_ns = 123456789;
  e.type = "event";
  e.name = "weird \"name\"\n";
  e.depth = 2;
  e.attrs = {{"int", std::int64_t{-42}},
             {"real", 2.5},
             {"flag", true},
             {"text", std::string("line1\nline2\t\"quoted\"")},
             {"nan", std::numeric_limits<double>::quiet_NaN()},
             {"inf", std::numeric_limits<double>::infinity()}};
  const std::string line = obs::JsonlSink::format(e);

  const JsonValue v = parse_json(line);
  const JsonObject& obj = v.obj();
  EXPECT_DOUBLE_EQ(obj.at("ts_ns").num(), 123456789.0);
  EXPECT_EQ(obj.at("type").str(), "event");
  EXPECT_EQ(obj.at("name").str(), "weird \"name\"\n");
  EXPECT_DOUBLE_EQ(obj.at("depth").num(), 2.0);
  EXPECT_EQ(obj.count("dur_ns"), 0u);  // not a timed record
  const JsonObject& attrs = obj.at("attrs").obj();
  EXPECT_DOUBLE_EQ(attrs.at("int").num(), -42.0);
  EXPECT_DOUBLE_EQ(attrs.at("real").num(), 2.5);
  EXPECT_EQ(std::get<bool>(attrs.at("flag").v), true);
  EXPECT_EQ(attrs.at("text").str(), "line1\nline2\t\"quoted\"");
  EXPECT_TRUE(attrs.at("nan").is_null());  // non-finite doubles become null
  EXPECT_TRUE(attrs.at("inf").is_null());
}

TEST(ObsJsonl, SpanLineCarriesDuration) {
  obs::Event e;
  e.ts_ns = 1000;
  e.type = "span";
  e.name = "calib.run";
  e.depth = 0;
  e.dur_ns = 1.5e6;
  const JsonObject obj = parse_json(obs::JsonlSink::format(e)).obj();
  EXPECT_EQ(obj.at("type").str(), "span");
  EXPECT_DOUBLE_EQ(obj.at("dur_ns").num(), 1.5e6);
}

TEST(ObsJsonl, EveryLineOfARealisticStreamParses) {
  // Drive the global registry through a representative workload and check
  // that each formatted event parses with the required fields present.
  obs::Registry reg;
  reg.set_enabled(true);
  obs::FakeClock clock(10);
  reg.set_clock(&clock);
  auto sink = std::make_unique<obs::CollectorSink>();
  obs::CollectorSink* collector = sink.get();
  reg.set_sink(std::move(sink));

  for (int i = 0; i < 5; ++i) {
    obs::Event e;
    e.ts_ns = reg.now_ns();
    e.type = i % 2 == 0 ? "span" : "event";
    e.name = "stream.item";
    e.dur_ns = i % 2 == 0 ? 100.0 * i : -1.0;
    e.attrs = {{"i", i}, {"label", "trial"}};
    reg.emit(e);
  }
  reg.counter("stream.counter").add(7);
  reg.record_span("stream.span", "stream.span", 0, 500000, 500000, {});
  obs::emit_summary_events(reg);

  const auto events = collector->events();
  ASSERT_GE(events.size(), 7u);  // 5 stream items + 2 summary rows
  for (const auto& e : events) {
    const std::string line = obs::JsonlSink::format(e);
    const JsonObject obj = parse_json(line).obj();
    EXPECT_EQ(obj.count("ts_ns"), 1u) << line;
    EXPECT_EQ(obj.count("type"), 1u) << line;
    EXPECT_EQ(obj.count("name"), 1u) << line;
  }
  reg.set_sink(nullptr);
}

}  // namespace
