#ifndef SECXML_QUERY_EVALUATOR_H_
#define SECXML_QUERY_EVALUATOR_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/secure_store.h"
#include "exec/exec_stats.h"
#include "query/decomposer.h"
#include "query/matcher.h"
#include "query/pattern_tree.h"

namespace secxml {

/// Which access-control semantics to evaluate under (paper Section 4).
enum class AccessSemantics {
  /// No access control: the original NoK/STD evaluation.
  kNone,
  /// Cho et al. binding semantics (Section 4.1): a result is kept iff every
  /// *bound* data node is accessible. Implemented by ε-NoK.
  kBinding,
  /// Gabillon-Bruno view semantics (Section 4.2): a non-accessible node
  /// additionally hides its entire subtree. Implemented by ε-NoK plus the
  /// ε-STD visibility-filtered structural join.
  kView,
};

/// Evaluation options.
struct EvalOptions {
  AccessSemantics semantics = AccessSemantics::kNone;
  SubjectId subject = 0;
  /// Use the in-memory DOL page headers to skip wholly inaccessible pages.
  bool page_skip = true;
  /// Require sibling pattern nodes to bind in document order (NoK's ordered
  /// pattern trees; see NokMatcher::Options::ordered_siblings).
  bool ordered_siblings = false;
  /// Batch evaluation only: cap on visibility classes per structural scan.
  /// 0 means the full mask width (kMaxBatchClasses); tests set a smaller
  /// cap to pin the one-wide-scan path byte-identical to the chunked one.
  size_t batch_chunk_classes = 0;
};

/// Evaluation outcome plus the counters the paper's Figure 7 reports.
struct EvalResult {
  /// Distinct data nodes bound to the returning node across all complete
  /// matches, in document order.
  std::vector<NodeId> answers;
  /// Fragment matches found before joining (diagnostic).
  size_t fragment_matches = 0;
  /// Per-operator execution counters: "scan" (the ε-NoK matcher's cursor),
  /// "visibility" (the hidden-interval sweep + root filtering, view
  /// semantics only; sweep costs appear on the query that computed the
  /// cached intervals), "join" (validity + reachability semijoins).
  std::vector<OperatorStats> operators;
  /// Rollup of `operators`. `exec.access_only_fetches` staying 0 is the
  /// paper's zero-extra-I/O claim as a measured value; `exec.pages_skipped`
  /// matches the IoStats::pages_skipped delta of this evaluation.
  ExecStats exec;
};

/// A pattern tree decomposed and wired for evaluation: the fragment list
/// plus the slot bookkeeping every evaluation needs (which pattern nodes are
/// designated per fragment, which slot joins to each child fragment, which
/// slot returns answers). Pattern-only — shared verbatim by the per-subject
/// evaluator and the multi-subject batch evaluator, which is what pins the
/// two pipelines to the same plan.
struct PreparedQuery {
  DecomposedQuery query;
  /// Child fragments of each fragment.
  std::vector<std::vector<int>> children;
  /// Designated pattern nodes per fragment: one slot per child-fragment
  /// join source plus one for the returning node (slots may coincide).
  std::vector<std::vector<int>> designated;
  /// Slot (into designated[f]) joining to children[f][i]; parallel lists.
  std::vector<std::vector<int>> child_slot;
  /// Slot of the returning node, -1 for fragments that return nothing.
  std::vector<int> ret_slot;
};

/// Decomposes `pattern` and computes the slot wiring above.
Status PrepareQuery(const PatternTree& pattern, PreparedQuery* out);

/// View-semantics visibility filter (ε-STD, Section 4.2): drops every
/// fragment match whose root lies inside a hidden interval, in place. Match
/// roots must ascend (the matcher visits candidates in document order).
/// Counts consumed items into `stats`.
void FilterMatchesVisible(const std::vector<NodeInterval>& hidden,
                          std::vector<std::vector<FragmentMatch>>* matches,
                          ExecStats* stats);

/// Connects fragment matches with the (ε-)STD ancestor-descendant semijoins
/// (bottom-up validity, then top-down reachability) and collects the
/// returning-node bindings of complete matches into sorted, duplicate-free
/// `answers`. Counts join work into `join_stats`.
void JoinMatches(const PreparedQuery& pq,
                 const std::vector<std::vector<FragmentMatch>>& matches,
                 std::vector<NodeId>* answers, ExecStats* join_stats);

/// Secure twig query evaluator: decomposes the pattern into NoK fragments,
/// matches them with (ε-)NoK, and connects fragments with (ε-)STD
/// ancestor-descendant joins (paper Sections 3-4).
class QueryEvaluator {
 public:
  explicit QueryEvaluator(SecureStore* store) : store_(store) {}

  /// Evaluates a pattern tree.
  Result<EvalResult> Evaluate(const PatternTree& pattern,
                              const EvalOptions& options);

  /// Evaluates an already-prepared query (the plan-cache entry point: the
  /// caller fetched or built `pq` once and reuses it across calls). Pins
  /// its own snapshot like Evaluate; a pin already held by the calling
  /// thread is adopted, so cache-probing callers that pinned first get a
  /// consistent epoch.
  Result<EvalResult> EvaluatePrepared(const PreparedQuery& pq,
                                      const EvalOptions& options);

  /// Convenience: parse an XPath-subset string and evaluate it.
  Result<EvalResult> EvaluateXPath(std::string_view xpath,
                                   const EvalOptions& options);

 private:
  SecureStore* store_;
};

}  // namespace secxml

#endif  // SECXML_QUERY_EVALUATOR_H_
