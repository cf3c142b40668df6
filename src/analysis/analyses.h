// The analysis passes of analock-verify. Each takes the parsed files
// (plus the cross-TU call graph where relevant; the token rules take one
// source) and appends findings; the engine owns suppression,
// fingerprints, and ordering.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/model.h"
#include "analysis/parser.h"

namespace analock::analysis {

/// Interprocedural secret taint: key/PUF material flowing into obs
/// events/metrics, printf-family calls, `.emit()` sinks, and stream
/// inserts — directly (taint-sink) or through call chains up to
/// `max_depth` hops (taint-call).
void run_taint_analysis(const std::vector<ParsedFile>& files,
                        const CallGraph& graph, int max_depth,
                        std::vector<Finding>& out);

/// Lock-capability checking for `// analock: guarded_by(m)` members:
/// every access in the owning class must be dominated by a
/// lock_guard/scoped_lock/unique_lock on `m`, or sit in a function
/// annotated `// analock: requires(m)` whose call sites are checked
/// instead. Constructors and destructors are exempt.
void run_lock_analysis(const std::vector<ParsedFile>& files,
                       const CallGraph& graph, std::vector<Finding>& out);

/// Determinism dataflow: floating-point accumulation whose order depends
/// on unordered-container iteration, and std <random> engines
/// constructed from non-sim::Rng sources.
void run_determinism_analysis(const std::vector<ParsedFile>& files,
                              std::vector<Finding>& out);

/// Parallel-region safety: `ThreadPool::parallel_for` lambda bodies and
/// functions annotated `// analock: parallel_region` are concurrent
/// scopes. By-reference captures written inside one must be lane-
/// disjoint (indexed by the region's induction variables), guarded_by a
/// held lock, or std::atomic (parallel-shared-write); calls out of a
/// region must reach functions annotated `// analock: thread_safe` and
/// must not touch mutable static state (parallel-unsafe-call).
void run_parallel_analysis(const std::vector<ParsedFile>& files,
                           const CallGraph& graph, int max_depth,
                           std::vector<Finding>& out);

/// Lock-order cycle detection: builds a lock-acquisition graph from
/// nested lock scopes plus `requires(m)` summaries and call-through
/// acquisitions across TUs; every edge on a cycle is reported as a
/// potential deadlock (lock-order-cycle).
void run_lock_order_analysis(const std::vector<ParsedFile>& files,
                             const CallGraph& graph,
                             std::vector<Finding>& out);

/// FP bit-exactness rules, scoped to batch-lane code (receiver_batch,
/// fft_plan, or any file annotated `// analock: bit_exact`, such as the
/// evaluator's metric cores): reassociable reductions and
/// thread-count-dependent accumulation (fp-reassoc), and
/// fused-multiply-add expressions (fp-contract).
void run_fp_exact_analysis(const std::vector<ParsedFile>& files,
                           std::vector<Finding>& out);

/// Constant-time flow: secret-dependent control flow (secret-branch),
/// data-dependent memory access (secret-index), operand-dependent
/// latency and loop shapes (vartime-op), and secrets passed to known
/// variable-time library callees (ct-leak-call). Per-function
/// returns-secret / param-flows-to-branch/index/vartime summaries are
/// fixed-pointed over the call graph; `// analock: ct_safe` blesses a
/// reviewed constant-time function (ct_equal implicitly) and
/// `// analock: declassified(reason)` marks an audited deliberate
/// release on its line and the line below.
void run_ct_flow_analysis(const std::vector<ParsedFile>& files,
                          const CallGraph& graph, std::vector<Finding>& out);

/// Per-file token rules with no dataflow: ambient clock reads
/// (determinism-clock), early-exit ==/!= on key material
/// (secret-compare), literal shift overflow (shift-overflow),
/// value-unsafe FP modes (build-hygiene), and the ambient forms of
/// rng-source. CMake files get build-hygiene only.
void run_token_rules(const SourceFile& source, std::vector<Finding>& out);

/// True when `identifier` names key/PUF material by the repo's naming
/// convention (the shared secret oracle of taint, ct-flow and
/// secret-compare).
[[nodiscard]] bool is_secret_identifier(std::string_view identifier);

/// True for the member accessors that expose raw key words: bits and
/// to_hex.
[[nodiscard]] bool is_raw_key_accessor(std::string_view name);

/// True when `text` calls a raw-key accessor: .bits( / ->bits( /
/// .to_hex( / ->to_hex(.
[[nodiscard]] bool has_secret_accessor(std::string_view text);

/// True for the member accessors whose result is public by policy:
/// length and presence (size, empty, has_value, length, capacity).
[[nodiscard]] bool is_public_shape_accessor(std::string_view name);

/// class -> `// analock: guarded_by(m)` member -> m, unioned across all
/// TUs (annotations live in headers; accesses live in both headers and
/// .cpp files).
using GuardedMembers =
    std::map<std::string, std::map<std::string, std::string>>;
[[nodiscard]] GuardedMembers guarded_members(
    const std::vector<ParsedFile>& files);

/// True when a lock scope of `fn` on `mutex_name` is live at `offset`.
/// The lock argument may reach the mutex through an object: "mu_",
/// "this->mu_" and "other.mu_" all name mu_.
[[nodiscard]] bool held_at(const FunctionDef& fn, const std::string& mutex_name,
                           std::size_t offset);

/// One concurrent scope of a function: a parallel_for lambda body, or the
/// whole body of a `// analock: parallel_region` function.
struct ConcurrentScope {
  std::size_t begin = 0;
  std::size_t end = 0;
  const ParallelRegion* lambda = nullptr;  ///< null for annotated fns

  [[nodiscard]] bool contains(std::size_t offset) const {
    return begin <= offset && offset < end;
  }
};

/// The non-empty concurrent scopes of `fn`: its lambdas, then its whole
/// body when it is annotated.
[[nodiscard]] std::vector<ConcurrentScope> concurrent_scopes(
    const FunctionDef& fn);

/// True for the std <random> engine type names (mt19937, ...).
[[nodiscard]] bool is_std_engine_name(std::string_view name);

/// True when a seed or engine expression derives from the seeded
/// sim::Rng streams (it mentions rng, Rng, fork, or seed).
[[nodiscard]] bool seed_is_sim_derived(std::string_view expr);

}  // namespace analock::analysis
