// FP bit-exactness rules for batch-lane code.
//
// The SoA batch engine promises bit-identical results for any
// ANALOCK_THREADS value, so lane code must avoid every construct whose
// floating-point result depends on association order or contraction:
//
// fp-reassoc — `std::reduce` / `std::transform_reduce` (unspecified
// association), `std::accumulate` driven by an execution policy,
// pairwise/tree sums (`v[i] = v[2*i] + v[2*i+1]` style, whose shape
// depends on the split count), and thread-count-dependent accumulation
// (a shared floating-point `+=` / `-=` inside a parallel region — the
// partial-sum boundaries move with the worker count).
//
// fp-contract — `std::fma`/`fmaf` calls: the fused result differs from
// the unfused `a*b + c` the scalar reference path computes.
//
// Scope: files named receiver_batch.cpp or fft_plan.cpp (the batch lane
// set), plus any file annotated `// analock: bit_exact` (such as the
// evaluator's metric cores). Everything else may trade exactness for
// speed freely.
#include <algorithm>
#include <string>

#include "analysis/analyses.h"

namespace analock::analysis {

namespace {

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool in_scope(const ParsedFile& file) {
  if (file.bit_exact) return true;
  const std::string base = basename_of(file.source->path);
  return base == "receiver_batch.cpp" || base == "fft_plan.cpp";
}

bool type_is_float(const std::string& type) {
  return contains_word(type, "double") || contains_word(type, "float") ||
         type.find("cplx") != std::string::npos ||
         type.find("complex") != std::string::npos;
}

bool looks_like_accumulator(const std::string& name) {
  return name.find("sum") != std::string::npos ||
         name.find("total") != std::string::npos ||
         name.find("acc") != std::string::npos ||
         name.find("energy") != std::string::npos;
}

/// Whole-word occurrences of `word` directly followed by '[' in `text`.
int count_indexed_uses(std::string_view text, std::string_view word) {
  int count = 0;
  for_each_identifier(text, [&](std::string_view name, std::size_t begin) {
    const std::size_t end = begin + name.size();
    if (name == word && (begin == 0 || !is_word_char(text[begin - 1])) &&
        end < text.size() && text[end] == '[') {
      ++count;
    }
    return true;
  });
  return count;
}

}  // namespace

void run_fp_exact_analysis(const std::vector<ParsedFile>& files,
                           std::vector<Finding>& out) {
  for (const ParsedFile& file : files) {
    if (!in_scope(file)) continue;
    for (const FunctionDef& fn : file.functions) {
      const std::vector<ConcurrentScope> scopes = concurrent_scopes(fn);
      const auto concurrent = [&scopes](std::size_t offset) {
        return std::any_of(
            scopes.begin(), scopes.end(),
            [offset](const ConcurrentScope& s) { return s.contains(offset); });
      };
      const SourceFile& source = *file.source;

      for (const CallSite& call : fn.calls) {
        if (call.base_name == "reduce" ||
            call.base_name == "transform_reduce") {
          out.push_back(make_finding(
              source, call.offset, "fp-reassoc",
              "std::" + call.base_name +
                  "() has unspecified association order; bit-exact lane "
                  "code must use a sequential left fold"));
          continue;
        }
        if (call.base_name == "accumulate") {
          bool has_policy = false;
          for (const std::string& arg : call.args) {
            if (arg.find("execution::") != std::string::npos ||
                arg.find("par") == 0) {
              has_policy = true;
              break;
            }
          }
          if (has_policy) {
            out.push_back(make_finding(
                source, call.offset, "fp-reassoc",
                "std::accumulate() with an execution policy reassociates "
                "the reduction; bit-exact lane code must fold "
                "sequentially"));
          }
          continue;
        }
        if (call.base_name == "fma" || call.base_name == "fmaf") {
          out.push_back(make_finding(
              source, call.offset, "fp-contract",
              "std::" + call.base_name +
                  "() fuses the multiply-add; the result differs from the "
                  "unfused a*b+c computed by the scalar reference path"));
        }
      }

      for (const WriteSite& write : fn.writes) {
        if (!write.is_compound) {
          // Pairwise/tree sum: dst[i] = src[2*i] + src[2*i+1] — the
          // tree shape (and thus rounding) depends on the split count.
          if (!write.subscript.empty() &&
              count_indexed_uses(write.rhs, write.head) >= 2 &&
              (write.rhs.find('+') != std::string::npos ||
               write.rhs.find('-') != std::string::npos)) {
            out.push_back(make_finding(
                source, write.offset, "fp-reassoc",
                "pairwise/tree combination of '" + write.head +
                    "' elements; the reduction shape is "
                    "split-count-dependent, so results vary with the "
                    "partition"));
          }
          continue;
        }
        // Thread-count-dependent accumulation: a shared accumulator
        // += inside a concurrent scope moves its partial-sum
        // boundaries with ANALOCK_THREADS.
        if (!concurrent(write.offset)) continue;
        bool region_local = false;
        std::string type;
        for (const VarDecl& local : fn.locals) {
          if (local.name != write.head) continue;
          type = local.type;
          if (concurrent(local.offset)) region_local = true;
        }
        if (region_local) continue;
        for (const Param& p : fn.params) {
          if (p.name == write.head) type = p.type;
        }
        const bool floaty = type_is_float(type) ||
                            (type.empty() && looks_like_accumulator(write.head));
        if (!floaty) continue;
        out.push_back(make_finding(
            source, write.offset, "fp-reassoc",
            "'" + write.head +
                "' accumulates across lanes inside a parallel region; "
                "partial-sum boundaries move with the thread count, so "
                "the rounded result is not bit-exact"));
      }
    }
  }
}

}  // namespace analock::analysis
