#ifndef SECXML_QUERY_BATCH_EVALUATOR_H_
#define SECXML_QUERY_BATCH_EVALUATOR_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "core/secure_store.h"
#include "exec/exec_stats.h"
#include "query/evaluator.h"
#include "query/pattern_tree.h"
#include "query/query_cache.h"

namespace secxml {

/// One visibility equivalence class of a subject batch: every member has the
/// same codebook column, so every member's answer is byte-identical to the
/// class result — computed once and fanned out.
struct ClassEvalResult {
  /// Members in request order (first member is the representative).
  std::vector<SubjectId> subjects;
  EvalResult result;
};

/// Outcome of one multi-subject batch evaluation.
struct SubjectBatchResult {
  std::vector<ClassEvalResult> classes;
  /// Index into `classes`, parallel to the requested subject span.
  std::vector<size_t> class_of;
  /// Rollup: the sum of every class's result.exec. The batch counters
  /// (subjects_batched, classes_evaluated, class_dedup_hits) live in a
  /// "batch" operator attributed to each chunk's first class, so the sum
  /// identity holds by construction; access_only_fetches staying 0 is the
  /// zero-extra-I/O claim at batch granularity.
  ExecStats exec;

  /// The (shared) evaluation result for the i-th requested subject.
  const EvalResult& ResultFor(size_t subject_index) const {
    return classes[class_of[subject_index]].result;
  }
};

/// The post-scan, per-class finalize shared by BatchEvaluator and the
/// sharded coordinator (src/serve): applies the view-semantics visibility
/// filter (the class representative's hidden intervals, served from
/// `store`'s per-epoch cache) and the ε-STD join to the class's projected
/// matches, appending the "visibility" and "join" operators to r->operators
/// and collecting r->answers. The caller pushes the scan (and any merge)
/// operators before, batch counters after, then rolls up.
Status FinalizeClassEval(SecureStore* store, const PreparedQuery& pq,
                         const EvalOptions& options, SubjectId representative,
                         std::vector<std::vector<FragmentMatch>>* matches,
                         EvalResult* r);

/// Multi-subject batch evaluator: answers one twig query for a whole batch
/// of subjects with one structural scan per chunk of at most
/// kMaxBatchClasses (512) classes.
///
///  1. Subjects are grouped into visibility equivalence classes by codebook
///     column (GroupSubjectsByColumn). Identical columns imply identical
///     page verdicts, node checks, and hidden intervals, hence
///     byte-identical answers: each class is evaluated once.
///  2. Each chunk of up to kMaxBatchClasses classes runs the NoK structural
///     scan ONCE through MultiSubjectMatcher, testing the whole chunk per
///     node with a word-wide AND and skipping pages only when dead for
///     every live class.
///  3. The post-scan pipeline (view-semantics visibility filter, ε-STD
///     joins, answer collection) is the per-subject evaluator's own code
///     (FilterMatchesVisible/JoinMatches), run per class on the projected
///     matches — so per-class results equal QueryEvaluator::Evaluate for
///     the class representative, element for element.
///
/// Under AccessSemantics::kNone answers are subject-independent: the whole
/// batch is one class evaluated by the per-subject path.
///
/// EvalOptions::subject is ignored (the span governs).
/// With caches attached (DESIGN.md §14), each class probes the ResultCache
/// by its column fingerprint before evaluation (non-blocking — a class in
/// flight elsewhere is simply evaluated live) and publishes after; only the
/// miss classes enter the chunked scan, so a batch whose classes were all
/// answered by earlier traffic does no I/O at all. Batch counters
/// (subjects_batched, classes_evaluated, class_dedup_hits) cover the
/// classes actually evaluated; served classes are visible as
/// result_cache_hits on their own "cache" operator.
class BatchEvaluator {
 public:
  explicit BatchEvaluator(SecureStore* store, QueryCaches caches = {})
      : store_(store), caches_(caches) {}

  Result<SubjectBatchResult> Evaluate(const PatternTree& pattern,
                                      std::span<const SubjectId> subjects,
                                      const EvalOptions& options);

 private:
  SecureStore* store_;
  QueryCaches caches_;
};

}  // namespace secxml

#endif  // SECXML_QUERY_BATCH_EVALUATOR_H_
