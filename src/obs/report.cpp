#include "obs/report.h"

#include <atomic>
#include <string>
#include <vector>

namespace analock::obs {

void print_report(const Registry& reg, std::FILE* out) {
  const auto spans = reg.span_tree();
  const auto counters = reg.counters();
  const auto gauges = reg.gauges();
  const auto histograms = reg.histograms();
  if (spans.empty() && counters.empty() && gauges.empty() &&
      histograms.empty()) {
    return;
  }

  std::fprintf(out, "\n---------------------------- observability report "
                    "----------------------------\n");
  if (!spans.empty()) {
    std::fprintf(out, "%-40s %8s %11s %11s %9s %9s %9s\n", "span tree",
                 "calls", "total[ms]", "self[ms]", "p50[ms]", "p95[ms]",
                 "max[ms]");
    for (const SpanNode& node : spans) {
      std::string label(static_cast<std::size_t>(node.depth) * 2, ' ');
      label += node.name;
      if (label.size() > 40) label.resize(40);
      std::fprintf(out, "%-40s %8llu %11.3f %11.3f %9.4f %9.4f %9.4f\n",
                   label.c_str(), static_cast<unsigned long long>(node.calls),
                   static_cast<double>(node.total_ns) / 1e6,
                   static_cast<double>(node.self_ns) / 1e6, node.dur_ms.p50,
                   node.dur_ms.p95, node.dur_ms.max);
    }
  }

  bool header = false;
  for (const auto& [name, value] : counters) {
    if (value == 0) continue;
    if (!header) {
      std::fprintf(out, "%-40s %8s\n", "counter", "value");
      header = true;
    }
    std::fprintf(out, "%-40s %8llu\n", name.c_str(),
                 static_cast<unsigned long long>(value));
  }
  header = false;
  for (const auto& [name, value] : gauges) {
    if (!header) {
      std::fprintf(out, "%-40s %8s\n", "gauge", "value");
      header = true;
    }
    std::fprintf(out, "%-40s %8.4g\n", name.c_str(), value);
  }
  header = false;
  for (const auto& [name, s] : histograms) {
    if (s.count == 0) continue;
    if (!header) {
      std::fprintf(out, "%-40s %8s %11s %11s %9s %9s\n", "histogram",
                   "count", "mean", "p50", "p95", "max");
      header = true;
    }
    std::fprintf(out, "%-40s %8llu %11.4g %11.4g %9.4g %9.4g\n",
                 name.c_str(), static_cast<unsigned long long>(s.count),
                 s.mean(), s.p50, s.p95, s.max);
  }
  std::fprintf(out, "-------------------------------------------------------"
                    "----------------------------------\n");
  std::fflush(out);
}

void emit_summary_events(Registry& reg) {
  if (!reg.enabled() || !reg.has_sink()) return;
  const std::uint64_t now = reg.now_ns();
  for (const SpanNode& node : reg.span_tree()) {
    Event e;
    e.ts_ns = now;
    e.type = "summary";
    e.name = node.path;
    e.attrs = {{"kind", "span"},
               {"calls", node.calls},
               {"total_ms", static_cast<double>(node.total_ns) / 1e6},
               {"self_ms", static_cast<double>(node.self_ns) / 1e6},
               {"p50_ms", node.dur_ms.p50},
               {"p95_ms", node.dur_ms.p95},
               {"max_ms", node.dur_ms.max}};
    reg.emit(e);
  }
  for (const auto& [name, value] : reg.counters()) {
    if (value == 0) continue;
    Event e;
    e.ts_ns = now;
    e.type = "summary";
    e.name = name;
    e.attrs = {{"kind", "counter"}, {"value", value}};
    reg.emit(e);
  }
}

void finish_run(std::FILE* report_out) {
  static std::atomic<bool> finished{false};
  if (finished.exchange(true)) return;
  Registry& reg = registry();
  emit_summary_events(reg);
  if (report_out != nullptr && reg.enabled()) print_report(reg, report_out);
  reg.set_sink(nullptr);  // flushes and closes the artifact
}

}  // namespace analock::obs
