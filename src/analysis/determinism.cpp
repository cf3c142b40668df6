// Determinism dataflow checks.
//
// fp-unordered-accum: a floating-point accumulator updated inside a
// range-for over an unordered container sums in hash-iteration order,
// which varies run to run (and across libstdc++ versions) — the seeded
// reproducibility contract of the calibration/evaluation pipeline
// breaks silently. std::map/std::set, or sorting before accumulating,
// restore a stable order.
//
// rng-source: every stochastic element must derive from the seeded
// sim::Rng streams. A std <random> engine default-constructed or seeded
// from anything that does not mention a sim::Rng draw (rng/fork/seed)
// is ambient entropy in disguise. The ambient forms that need no
// declaration (random_device, rand, time(nullptr), engine temporaries,
// shuffle/sample engines) are the token pass's (token_rules.cpp).
#include <set>
#include <string>

#include "analysis/analyses.h"

namespace analock::analysis {

namespace {

const char* const kUnorderedTypes[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

constexpr std::string_view kStdEngines[] = {
    "mt19937",     "mt19937_64",    "minstd_rand", "minstd_rand0",
    "default_random_engine",        "knuth_b",     "ranlux24",
    "ranlux48",    "ranlux24_base", "ranlux48_base",
};

bool type_is_unordered(const std::string& type) {
  for (const char* t : kUnorderedTypes) {
    if (type.find(t) != std::string::npos) return true;
  }
  return false;
}

bool type_is_float(const std::string& type) {
  return type.find("double") != std::string::npos ||
         type.find("float") != std::string::npos;
}

bool type_is_std_engine(const std::string& type) {
  if (type.find("sim::Rng") != std::string::npos) return false;
  for (const std::string_view e : kStdEngines) {
    if (contains_word(type, e)) return true;
  }
  return false;
}

}  // namespace

bool is_std_engine_name(std::string_view name) {
  for (const std::string_view e : kStdEngines) {
    if (name == e) return true;
  }
  return false;
}

bool seed_is_sim_derived(std::string_view expr) {
  return contains_word(expr, "rng") || expr.find("Rng") != std::string::npos ||
         expr.find("fork") != std::string::npos || contains_word(expr, "seed");
}

void run_determinism_analysis(const std::vector<ParsedFile>& files,
                              std::vector<Finding>& out) {
  for (const ParsedFile& file : files) {
    const SourceFile& source = *file.source;
    for (const FunctionDef& fn : file.functions) {
      // Names of unordered containers and float accumulators in scope.
      std::set<std::string> unordered_names;
      std::set<std::string> float_names;
      for (const Param& p : fn.params) {
        if (p.name.empty()) continue;
        if (type_is_unordered(p.type)) unordered_names.insert(p.name);
        if (type_is_float(p.type)) float_names.insert(p.name);
      }
      for (const VarDecl& local : fn.locals) {
        if (type_is_unordered(local.type)) unordered_names.insert(local.name);
        if (type_is_float(local.type)) float_names.insert(local.name);
      }

      if (!unordered_names.empty()) {
        for (const RangeForLoop& loop : fn.range_fors) {
          bool over_unordered = false;
          for (const std::string& name : unordered_names) {
            if (contains_word(loop.range_text, name)) {
              over_unordered = true;
              break;
            }
          }
          if (!over_unordered) continue;
          for (const CompoundAssign& assign : fn.compound_assigns) {
            if (assign.offset < loop.body_begin ||
                assign.offset >= loop.body_end) {
              continue;
            }
            const bool float_acc =
                float_names.count(assign.lhs) > 0 ||
                assign.lhs.find("sum") != std::string::npos ||
                assign.lhs.find("total") != std::string::npos ||
                assign.lhs.find("acc") != std::string::npos;
            if (!float_acc) continue;
            out.push_back(make_finding(
                source, assign.offset, "fp-unordered-accum",
                "floating-point accumulator '" + assign.lhs +
                    "' updated while iterating an unordered container; "
                    "the sum depends on hash iteration order — use "
                    "std::map/std::set or sort first"));
          }
        }
      }

      for (const VarDecl& local : fn.locals) {
        if (!type_is_std_engine(local.type)) continue;
        if (!local.init.empty() && seed_is_sim_derived(local.init)) {
          continue;
        }
        out.push_back(make_finding(
            source, local.offset, "rng-source",
            "std <random> engine '" + local.name + "' is " +
                (local.init.empty()
                     ? std::string("default-seeded")
                     : std::string("seeded from a non-sim::Rng source")) +
                "; derive the seed from a named sim::Rng stream "
                "(Rng::fork)"));
      }
    }
  }
}

}  // namespace analock::analysis
