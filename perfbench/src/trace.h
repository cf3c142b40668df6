// In-memory span recorder for the traced benchmark run.
//
// Spans are opened by the benchmark's own code around each call into a
// library layer: name, start, end, parent span and job id. They stay in
// memory while the workload runs and are written out once at exit, so
// recording costs a clock read and a vector push per boundary. With no
// tracer (`nullptr`) a Span does nothing, which is the untraced mode the
// end-to-end numbers come from.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t job = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  void set_job(std::uint64_t job) { job_ = job; }

  std::uint32_t open(const char* name) {
    SpanRecord rec;
    rec.name = name;
    rec.id = static_cast<std::uint32_t>(spans_.size() + 1);
    rec.parent = stack_.empty() ? 0 : stack_.back();
    rec.job = job_;
    rec.start_ns = now_ns();
    spans_.push_back(rec);
    stack_.push_back(rec.id);
    return rec.id;
  }

  void close(std::uint32_t id) {
    spans_[id - 1].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per layer (the span name up to its first '.'; "job" spans
  /// belong to the benchmark itself), in ms: each span's duration minus
  /// the part of it its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const SpanRecord& s : spans_) {
      if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::string layer(s.name);
      layer = layer.substr(0, layer.find('.'));
      if (layer == "job") layer = "bench";
      out[layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                    1.0e6;
    }
    return out;
  }

  /// Writes one JSON object per span.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const SpanRecord& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,\"job\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, s.id, s.parent,
                   static_cast<unsigned long long>(s.job),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t job_ = 0;
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
