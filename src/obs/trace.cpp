#include "obs/trace.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace analock::obs {

namespace {

/// One open span on the calling thread.
struct Frame {
  std::string path;  // "outer;...;this"
  std::uint64_t child_ns = 0;
  const prof::PerfCounters* counters = nullptr;  // read at enter, if any
  prof::CounterValues enter;
  prof::CounterValues child_counters;
};

thread_local std::vector<Frame> tls_frames;

}  // namespace

TraceSpan::TraceSpan(const char* name, bool emit_event)
    : name_(name), emit_event_(emit_event) {
  Registry& reg = registry();
  if (!reg.enabled()) return;
  active_ = true;
  depth_ = static_cast<int>(tls_frames.size());
  Frame frame;
  if (depth_ > 0) {
    frame.path = tls_frames.back().path;
    frame.path += ';';
  }
  frame.path += name_;
  frame.counters = reg.perf_counters();
  if (frame.counters != nullptr) frame.enter = frame.counters->read();
  tls_frames.push_back(std::move(frame));
  begin_ns_ = reg.now_ns();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  Registry& reg = registry();
  const std::uint64_t end_ns = reg.now_ns();
  const std::uint64_t dur_ns = end_ns > begin_ns_ ? end_ns - begin_ns_ : 0;
  const Frame frame = std::move(tls_frames.back());
  tls_frames.pop_back();

  // Counters are attributed only if the group read at enter is still the
  // registry's (a harness may have ended in between).
  prof::CounterValues total_counters;
  prof::CounterValues self_counters;
  if (frame.counters != nullptr && frame.counters == reg.perf_counters()) {
    total_counters = frame.counters->read() - frame.enter;
    self_counters = total_counters - frame.child_counters;
  }
  if (!tls_frames.empty()) {
    tls_frames.back().child_ns += dur_ns;
    tls_frames.back().child_counters += total_counters;
  }
  reg.record_span(frame.path, name_, depth_, dur_ns,
                  dur_ns - std::min(dur_ns, frame.child_ns), self_counters);

  if (emit_event_ && reg.has_sink()) {
    Event e;
    e.ts_ns = begin_ns_;
    e.type = "span";
    e.name = name_;
    e.depth = depth_;
    e.dur_ns = static_cast<double>(dur_ns);
    reg.emit(e);
  }
}

int TraceSpan::current_depth() {
  return static_cast<int>(tls_frames.size());
}

void event(std::string_view name, std::initializer_list<Attr> attrs) {
  Registry& reg = registry();
  if (!reg.enabled() || !reg.has_sink()) return;
  Event e;
  e.ts_ns = reg.now_ns();
  e.type = "event";
  e.name = std::string(name);
  e.depth = TraceSpan::current_depth();
  e.attrs.assign(attrs.begin(), attrs.end());
  reg.emit(e);
}

Convergence::Convergence(std::string attack, std::string metric)
    : attack_(std::move(attack)), metric_(std::move(metric)) {}

bool Convergence::observe(std::uint64_t query, double score) {
  if (score <= best_) return false;
  best_ = score;
  event("attack.convergence", {{"attack", attack_},
                               {"query", query},
                               {"metric", metric_},
                               {"best_score", score}});
  return true;
}

}  // namespace analock::obs
