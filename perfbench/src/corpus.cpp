#include "corpus.h"

#include <algorithm>
#include <array>
#include <string_view>

#include "sim/rng.h"

namespace perfbench {

namespace {

/// Accumulates one translation unit line by line, tracking the 1-based
/// number of the next line so planted findings can name their line.
class TuWriter {
 public:
  explicit TuWriter(std::string path) : path_(std::move(path)) {}

  void line(std::string_view text) {
    text_.append(text);
    text_.push_back('\n');
    ++next_line_;
  }
  /// Writes `text` and records that the analyzer must flag it with `rule`.
  void planted(std::string_view text, std::string_view rule,
               std::vector<PlantedFinding>& out) {
    out.push_back({path_, next_line_, std::string(rule)});
    line(text);
  }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string take() { return std::move(text_); }

 private:
  std::string path_;
  std::string text_;
  int next_line_ = 1;
};

constexpr std::array<std::string_view, 8> kDirs = {
    "rf", "dsp", "lock", "calib", "attack", "sim", "obs", "par"};

constexpr std::array<std::string_view, 6> kProse = {
    "// Applies the stage gain to every sample of the capture and folds the\n"
    "// clipped part into a running level estimate. The estimate is a plain\n"
    "// ordered sum, so the result is the same on every platform.",
    "// Counts entries per name. The ordered map keeps the iteration order\n"
    "// independent of the hash seed and the insertion history.",
    "// Maps the two low mode bits onto a lane multiplier. Mode 3 is\n"
    "// reserved and behaves like mode 2.",
    "// Shared tally behind its own mutex: every access takes the lock, as\n"
    "// the guarded_by annotation on the member requires.",
    "// Fills the output in parallel; each worker writes only the lanes of\n"
    "// its own [begin, end) range, so no two workers touch one element.",
    "// Second-order polynomial used as a smooth pre-distortion curve; the\n"
    "// coefficients are the nominal ones from the block specification.",
};

std::string suffix(std::size_t tu, std::size_t k) {
  return std::to_string(tu) + "_" + std::to_string(k);
}

void prose(TuWriter& w, std::size_t kind) {
  std::string_view text = kProse[kind % kProse.size()];
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    w.line(text.substr(0, nl));
    if (nl == std::string_view::npos) break;
    text.remove_prefix(nl + 1);
  }
}

// ---- clean constructs -------------------------------------------------

void clean_mix(TuWriter& w, const std::string& s, double gain) {
  prose(w, 0);
  w.line("double mix_" + s +
         "(const std::vector<double>& samples, double level) {");
  w.line("  double acc = 0.0;");
  w.line("  for (std::size_t i = 0; i < samples.size(); ++i) {");
  w.line("    const double v = samples[i] * level * " +
         std::to_string(gain) + ";");
  w.line("    if (v > 1.0) {");
  w.line("      acc += 1.0;");
  w.line("    } else if (v < -1.0) {");
  w.line("      acc -= 1.0;");
  w.line("    } else {");
  w.line("      acc += 0.5 * v;");
  w.line("    }");
  w.line("  }");
  w.line("  return acc / static_cast<double>(samples.size() + 1);");
  w.line("}");
  w.line("");
}

void clean_tally(TuWriter& w, const std::string& s) {
  prose(w, 1);
  w.line("int tally_" + s + "(const std::map<std::string, int>& counts) {");
  w.line("  int total = 0;");
  w.line("  for (const auto& [name, n] : counts) {");
  w.line("    total += n + static_cast<int>(name.size());");
  w.line("  }");
  w.line("  return total;");
  w.line("}");
  w.line("");
}

void clean_select(TuWriter& w, const std::string& s) {
  prose(w, 2);
  w.line("int select_" + s + "(int mode, int lanes) {");
  w.line("  switch (mode & 3) {");
  w.line("    case 0:");
  w.line("      return lanes;");
  w.line("    case 1:");
  w.line("      return lanes * 2;");
  w.line("    default:");
  w.line("      return lanes + 1;");
  w.line("  }");
  w.line("}");
  w.line("");
}

void clean_counter(TuWriter& w, const std::string& s) {
  prose(w, 3);
  w.line("class Counter_" + s + " {");
  w.line(" public:");
  w.line("  void add(std::uint64_t n) {");
  w.line("    const std::scoped_lock lock(mu_);");
  w.line("    total_ += n;");
  w.line("  }");
  w.line("");
  w.line("  [[nodiscard]] std::uint64_t total() const {");
  w.line("    const std::scoped_lock lock(mu_);");
  w.line("    return total_;");
  w.line("  }");
  w.line("");
  w.line(" private:");
  w.line("  mutable std::mutex mu_;");
  w.line("  std::uint64_t total_ = 0;  // analock: guarded_by(mu_)");
  w.line("};");
  w.line("");
}

void clean_parallel(TuWriter& w, const std::string& s) {
  prose(w, 4);
  w.line("struct Pool_" + s + " {");
  w.line("  template <typename F>");
  w.line("  void parallel_for(std::size_t n, F body);");
  w.line("};");
  w.line("");
  w.line("void fill_" + s + "(Pool_" + s + "& pool, std::vector<double>& out) {");
  w.line("  pool.parallel_for(out.size(), [&](std::size_t begin, std::size_t end) {");
  w.line("    for (std::size_t i = begin; i < end; ++i) {");
  w.line("      out[i] = 0.5 * static_cast<double>(i);");
  w.line("    }");
  w.line("  });");
  w.line("}");
  w.line("");
}

void clean_poly(TuWriter& w, const std::string& s, std::string_view callee) {
  prose(w, 5);
  w.line("double poly_" + s + "(double x) {");
  if (callee.empty()) {
    w.line("  return x * x + 0.25 * x + 1.0;");
  } else {
    w.line("  return " + std::string(callee) + "(x) * 0.5 + x;");
  }
  w.line("}");
  w.line("");
}

// ---- planted violations (one shape per analysis family) ---------------

void plant_taint_sink(TuWriter& w, const std::string& s,
                      std::vector<PlantedFinding>& out) {
  w.line("void dump_" + s + "(unsigned long long key_bits) {");
  w.planted("  std::printf(\"state=%llx\\n\", key_bits);", "taint-sink", out);
  w.line("}");
  w.line("");
}

void plant_taint_call(TuWriter& w, const std::string& s,
                      std::vector<PlantedFinding>& out) {
  w.line("std::string render_" + s + "(unsigned long long key_word) {");
  w.line("  return std::to_string(key_word);");
  w.line("}");
  w.line("");
  w.line("void note_" + s + "(const std::string& message) {");
  w.line("  std::printf(\"[note] %s\\n\", message.c_str());");
  w.line("}");
  w.line("");
  w.line("void relay_" + s + "(unsigned long long key_word) {");
  w.planted("  note_" + s + "(render_" + s + "(key_word));", "taint-call",
            out);
  w.line("}");
  w.line("");
}

void plant_rng_source(TuWriter& w, const std::string& s,
                      std::vector<PlantedFinding>& out) {
  w.line("int draw_" + s + "() {");
  w.planted("  std::mt19937 gen;", "rng-source", out);
  w.line("  return static_cast<int>(gen());");
  w.line("}");
  w.line("");
}

void plant_unordered(TuWriter& w, const std::string& s,
                     std::vector<PlantedFinding>& out) {
  w.line("double weight_" + s +
         "(const std::unordered_map<std::string, double>& weights) {");
  w.line("  double sum = 0.0;");
  w.line("  for (const auto& [name, v] : weights) {");
  w.planted("    sum += v;", "fp-unordered-accum", out);
  w.line("  }");
  w.line("  return sum;");
  w.line("}");
  w.line("");
}

void plant_guarded(TuWriter& w, const std::string& s,
                   std::vector<PlantedFinding>& out) {
  w.line("class Gauge_" + s + " {");
  w.line(" public:");
  w.line("  void set(std::uint64_t n) {");
  w.line("    const std::scoped_lock lock(mu_);");
  w.line("    level_ = n;");
  w.line("  }");
  w.line("");
  w.line("  [[nodiscard]] std::uint64_t peek() const {");
  w.planted("    return level_;", "guarded-by", out);
  w.line("  }");
  w.line("");
  w.line(" private:");
  w.line("  mutable std::mutex mu_;");
  w.line("  std::uint64_t level_ = 0;  // analock: guarded_by(mu_)");
  w.line("};");
  w.line("");
}

void plant_secret_branch(TuWriter& w, const std::string& s,
                         std::vector<PlantedFinding>& out) {
  w.line("int penalty_" + s + "();");
  w.line("");
  w.line("int gate_" + s + "(std::uint64_t chip_key) {");
  w.planted("  if ((chip_key & 1u) != 0) return penalty_" + s + "();",
            "secret-branch", out);
  w.line("  return 0;");
  w.line("}");
  w.line("");
}

void plant_secret_index(TuWriter& w, const std::string& s,
                        std::vector<PlantedFinding>& out) {
  w.line("int probe_" + s + "(const int* sbox, std::uint64_t puf_key) {");
  w.planted("  return sbox[puf_key & 0xFu];", "secret-index", out);
  w.line("}");
  w.line("");
}

void plant_vartime(TuWriter& w, const std::string& s,
                   std::vector<PlantedFinding>& out) {
  w.line("std::uint64_t residue_" + s +
         "(std::uint64_t wrapped_key, std::uint64_t modulus) {");
  w.planted("  return wrapped_key % modulus;", "vartime-op", out);
  w.line("}");
  w.line("");
}

void plant_shared_write(TuWriter& w, const std::string& s,
                        std::vector<PlantedFinding>& out) {
  w.line("struct Shard_" + s + " {");
  w.line("  template <typename F>");
  w.line("  void parallel_for(std::size_t n, F body);");
  w.line("};");
  w.line("");
  w.line("void sum_" + s + "(Shard_" + s + "& pool, std::vector<double>& out) {");
  w.line("  double total = 0.0;");
  w.line("  pool.parallel_for(out.size(), [&](std::size_t begin, std::size_t end) {");
  w.line("    for (std::size_t i = begin; i < end; ++i) {");
  w.line("      out[i] = 1.0 * i;");
  w.planted("      total = total + out[i];", "parallel-shared-write", out);
  w.line("    }");
  w.line("  });");
  w.line("  out[0] = total;");
  w.line("}");
  w.line("");
}

void plant_lock_cycle(TuWriter& w, const std::string& s,
                      std::vector<PlantedFinding>& out) {
  const std::string a = "mu_a_" + s;
  const std::string b = "mu_b_" + s;
  w.line("std::mutex " + a + ";");
  w.line("std::mutex " + b + ";");
  w.line("");
  w.line("int forward_" + s + "() {");
  w.line("  std::lock_guard<std::mutex> first(" + a + ");");
  w.planted("  std::lock_guard<std::mutex> second(" + b + ");",
            "lock-order-cycle", out);
  w.line("  return 1;");
  w.line("}");
  w.line("");
  w.line("int backward_" + s + "() {");
  w.line("  std::lock_guard<std::mutex> first(" + b + ");");
  w.planted("  std::lock_guard<std::mutex> second(" + a + ");",
            "lock-order-cycle", out);
  w.line("  return 2;");
  w.line("}");
  w.line("");
}

using Plant = void (*)(TuWriter&, const std::string&,
                       std::vector<PlantedFinding>&);
constexpr std::array<Plant, 10> kPlants = {
    plant_taint_sink,    plant_taint_call,   plant_rng_source,
    plant_unordered,     plant_guarded,      plant_secret_branch,
    plant_secret_index,  plant_vartime,      plant_shared_write,
    plant_lock_cycle};

}  // namespace

Corpus make_corpus(std::uint64_t seed, std::size_t tus) {
  Corpus corpus;
  analock::sim::Rng rng = analock::sim::Rng(seed).fork("perfbench.corpus");
  // Violation kinds rotate through the families from a seeded offset, so
  // every family is planted equally often.
  const std::size_t plant_offset = rng.uniform_below(kPlants.size());
  for (std::size_t t = 0; t < tus; ++t) {
    const std::string_view dir = kDirs[rng.uniform_below(kDirs.size())];
    TuWriter w("src/" + std::string(dir) + "/gen_" + std::to_string(t) +
               ".cpp");
    w.line("// Generated translation unit " + std::to_string(t) + ".");
    w.line("#include <cstdint>");
    w.line("#include <cstdio>");
    w.line("#include <map>");
    w.line("#include <mutex>");
    w.line("#include <random>");
    w.line("#include <string>");
    w.line("#include <unordered_map>");
    w.line("#include <vector>");
    w.line("");
    w.line("namespace gen_" + std::to_string(t) + " {");
    w.line("");
    // A base polynomial (the cross-TU call target), then each clean
    // construct once in seeded order with one planted violation at a
    // seeded position. The composition is the same for every seed, so the
    // analyzer's work varies little between seeds; the seed picks order,
    // names, directories, constants, call targets and violation kinds.
    clean_poly(w, suffix(t, 0), "");
    std::array<std::size_t, 6> order = {0, 1, 2, 3, 4, 5};
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.uniform_below(i + 1)]);
    }
    const std::size_t plant_at = rng.uniform_below(order.size() + 1);
    const Plant plant = kPlants[(t + plant_offset) % kPlants.size()];
    std::size_t k = 1;
    for (std::size_t i = 0; i <= order.size(); ++i) {
      if (i == plant_at) plant(w, suffix(t, k++), corpus.planted);
      if (i == order.size()) break;
      const std::string s = suffix(t, k++);
      switch (order[i]) {
        case 0:
          clean_mix(w, s, rng.uniform(0.5, 2.0));
          break;
        case 1:
          clean_tally(w, s);
          break;
        case 2:
          clean_select(w, s);
          break;
        case 3:
          clean_counter(w, s);
          break;
        case 4:
          clean_parallel(w, s);
          break;
        default: {
          // Cross-TU call into an earlier unit's base polynomial.
          std::string callee;
          if (t > 0) {
            const std::size_t peer = rng.uniform_below(t);
            callee = "gen_" + std::to_string(peer) + "::poly_" +
                     suffix(peer, 0);
          }
          clean_poly(w, s, callee);
          break;
        }
      }
    }
    w.line("}  // namespace gen_" + std::to_string(t));
    std::string path = w.path();
    std::string text = w.take();
    corpus.bytes += text.size();
    corpus.files.emplace_back(std::move(path), std::move(text));
  }
  std::sort(corpus.planted.begin(), corpus.planted.end(),
            [](const PlantedFinding& a, const PlantedFinding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return corpus;
}

}  // namespace perfbench
