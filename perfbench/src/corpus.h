// Seeded analyzer corpus for the verify_src workload.
//
// The corpus is generated, not read from the live tree, so that a parent
// commit and a change analyze byte-identical input. Every translation
// unit mixes clean constructs from each analysis family (ordered
// accumulations, guarded members taken under their lock, lane-disjoint
// parallel regions, cross-TU helper calls) with violations planted at
// known lines. The generator records each planted (file, line, rule), so
// the benchmark can check the analyzer's findings exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct PlantedFinding {
  std::string file;
  int line = 0;
  std::string rule;
};

struct Corpus {
  /// (display path, text) per translation unit, in analysis order.
  std::vector<std::pair<std::string, std::string>> files;
  /// Findings the analyzer must report, sorted by (file, line, rule).
  std::vector<PlantedFinding> planted;
  std::size_t bytes = 0;
};

/// Builds `tus` translation units from `seed`. The same arguments always
/// give the same corpus.
[[nodiscard]] Corpus make_corpus(std::uint64_t seed, std::size_t tus = 128);

}  // namespace perfbench
