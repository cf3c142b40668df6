#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/jsonl_sink.h"
#include "obs/report.h"

namespace analock::obs {

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

void Histogram::observe(double value) {
  const std::scoped_lock lock(mu_);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

std::uint64_t Histogram::count() const {
  const std::scoped_lock lock(mu_);
  return count_;
}

double Histogram::sum() const {
  const std::scoped_lock lock(mu_);
  return sum_;
}

double Histogram::min() const {
  const std::scoped_lock lock(mu_);
  return min_;
}

double Histogram::max() const {
  const std::scoped_lock lock(mu_);
  return max_;
}

// analock: requires(mu_)
double Histogram::quantile_locked(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double prev = cum;
    cum += static_cast<double>(counts_[i]);
    if (cum >= target) {
      // Interpolate inside the bucket, then clamp to the observed range
      // (the overflow bucket has no upper edge: report the true max).
      if (i >= bounds_.size()) return max_;
      const double hi = bounds_[i];
      const double lo = i == 0 ? std::min(min_, hi) : bounds_[i - 1];
      const double pos =
          (target - prev) / static_cast<double>(counts_[i]);
      return std::clamp(lo + pos * (hi - lo), min_, max_);
    }
  }
  return max_;
}

double Histogram::quantile(double q) const {
  const std::scoped_lock lock(mu_);
  return quantile_locked(q);
}

HistogramSnapshot Histogram::snapshot() const {
  const std::scoped_lock lock(mu_);
  HistogramSnapshot s;
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  s.p50 = quantile_locked(0.5);
  s.p95 = quantile_locked(0.95);
  return s;
}

void Histogram::reset() {
  const std::scoped_lock lock(mu_);
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t n) {
  std::vector<double> bounds;
  bounds.reserve(n);
  double edge = start;
  for (std::size_t i = 0; i < n; ++i) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::default_duration_bounds_ms() {
  // 1 us, 2 us, 4 us, ... ~34 s: 26 power-of-two edges in milliseconds.
  return exponential_bounds(1e-3, 2.0, 26);
}

// ----------------------------------------------------------------- Registry

namespace {

template <typename Map, typename Make>
auto& find_or_create(Map& map, std::string_view name, Make make) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), make()).first;
  }
  return *it->second;
}

template <typename Map, typename Snapshot>
auto snapshot_map(const Map& map, Snapshot snap) {
  using Value = decltype(snap(*map.begin()->second));
  std::vector<std::pair<std::string, Value>> out;
  out.reserve(map.size());
  for (const auto& [name, metric] : map) out.emplace_back(name, snap(*metric));
  return out;
}

}  // namespace

void Registry::set_clock(const Clock* clock) {
  clock_.store(clock, std::memory_order_release);
}

std::uint64_t Registry::now_ns() const {
  const Clock* clock = clock_.load(std::memory_order_acquire);
  if (clock == nullptr) clock = &steady_clock_;
  return clock->now_ns();
}

Counter& Registry::counter(std::string_view name) {
  const std::scoped_lock lock(mu_);
  return find_or_create(counters_, name,
                        [] { return std::make_unique<Counter>(); });
}

Gauge& Registry::gauge(std::string_view name) {
  const std::scoped_lock lock(mu_);
  return find_or_create(gauges_, name,
                        [] { return std::make_unique<Gauge>(); });
}

Histogram& Registry::histogram(std::string_view name) {
  return histogram(name, Histogram::default_duration_bounds_ms());
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  const std::scoped_lock lock(mu_);
  return find_or_create(histograms_, name, [&] {
    return std::make_unique<Histogram>(std::move(bounds));
  });
}

bool SpanPathLess::operator()(std::string_view a, std::string_view b) const {
  const auto rank = [](char c) {
    return c == ';' ? 0 : static_cast<unsigned char>(c) + 1;
  };
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [&rank](char x, char y) { return rank(x) < rank(y); });
}

void Registry::record_span(std::string_view path, const char* name,
                           int depth, std::uint64_t total_ns,
                           std::uint64_t self_ns,
                           const prof::CounterValues& self_counters) {
  const std::scoped_lock lock(mu_);
  auto it = spans_.find(path);
  if (it == spans_.end()) {
    it = spans_.try_emplace(std::string(path)).first;
    it->second.node.path = it->first;
    it->second.node.name = name;
    it->second.node.depth = depth;
  }
  SpanNode& node = it->second.node;
  ++node.calls;
  node.total_ns += total_ns;
  node.self_ns += self_ns;
  node.self_counters += self_counters;
  it->second.durations.observe(static_cast<double>(total_ns) / 1e6);
}

void Registry::set_sink(std::unique_ptr<EventSink> sink) {
  std::unique_ptr<EventSink> old;
  {
    const std::scoped_lock lock(sink_mu_);
    old = std::move(sink_);
    sink_ = std::move(sink);
  }
  if (old) old->flush();
}

bool Registry::has_sink() const {
  const std::scoped_lock lock(sink_mu_);
  return sink_ != nullptr;
}

void Registry::emit(const Event& event) {
  const std::scoped_lock lock(sink_mu_);
  if (sink_) sink_->emit(event);
}

void Registry::flush() {
  const std::scoped_lock lock(sink_mu_);
  if (sink_) sink_->flush();
}

void Registry::reset_values() {
  const std::scoped_lock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  spans_.clear();
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  const std::scoped_lock lock(mu_);
  return snapshot_map(counters_, [](const Counter& c) { return c.value(); });
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  const std::scoped_lock lock(mu_);
  return snapshot_map(gauges_, [](const Gauge& g) { return g.value(); });
}

std::vector<std::pair<std::string, HistogramSnapshot>> Registry::histograms()
    const {
  const std::scoped_lock lock(mu_);
  return snapshot_map(histograms_,
                      [](const Histogram& h) { return h.snapshot(); });
}

std::vector<SpanNode> Registry::span_tree() const {
  const std::scoped_lock lock(mu_);
  std::vector<SpanNode> out;
  out.reserve(spans_.size());
  for (const auto& [path, slot] : spans_) {
    out.push_back(slot.node);
    out.back().dur_ms = slot.durations.snapshot();
  }
  return out;
}

// ------------------------------------------------------------------- global

namespace {

/// Applies the environment configuration (see registry()) to `reg`.
void init_from_env(Registry& reg) {
  bool sink_attached = false;
  const char* jsonl = std::getenv("ANALOCK_OBS_JSONL");
  if (jsonl != nullptr && jsonl[0] != '\0' &&
      std::string_view(jsonl) != "0") {
    auto sink = std::make_unique<JsonlSink>(jsonl);
    if (sink->ok()) {
      reg.set_sink(std::move(sink));
      reg.set_enabled(true);
      sink_attached = true;
    } else {
      std::fprintf(stderr, "warning: cannot open %s, JSONL sink disabled\n",
                   jsonl);
    }
  }
  const char* on = std::getenv("ANALOCK_OBS");
  if (on != nullptr && on[0] != '\0' && std::string_view(on) != "0") {
    reg.set_enabled(true);
  }
  const char* report = std::getenv("ANALOCK_OBS_REPORT");
  const bool print = report != nullptr && std::string_view(report) == "1";
  // One hook ends an env-configured run: quiet-span-only workloads emit
  // nothing per call, so the artifact still gets its summary rows.
  if (print) {
    std::atexit([] { finish_run(stdout); });
  } else if (sink_attached) {
    std::atexit([] { finish_run(nullptr); });
  }
}

}  // namespace

Registry& registry() {
  static Registry reg;
  // Completes after `reg`, so it is destroyed first; ordering keeps the
  // registry alive for any static-duration user that touched it.
  static const bool env_applied = (init_from_env(reg), true);
  (void)env_applied;
  return reg;
}

}  // namespace analock::obs
