#ifndef SECXML_QUERY_BATCH_EVALUATOR_H_
#define SECXML_QUERY_BATCH_EVALUATOR_H_

#include <functional>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/secure_store.h"
#include "exec/exec_stats.h"
#include "query/batch_matcher.h"
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

/// A chunk's shared structural scan: matches every fragment of `pq` for the
/// classes whose representatives are `reps` (class bit k is reps[k]), each
/// list in ascending root order, and appends the operators that did the
/// work ("scan", plus "merge" when the scan was scattered).
using ChunkScan = std::function<Status(
    const PreparedQuery& pq, const std::vector<SubjectId>& reps,
    std::vector<std::vector<BatchFragmentMatch>>* matches,
    std::vector<OperatorStats>* operators)>;

/// The class-batch pipeline behind BatchEvaluator and the sharded
/// coordinator (src/serve), for access-controlled semantics under the
/// caller's pin (both callers collapse kNone to one class themselves):
/// groups `subjects` into visibility classes, serves classes from the
/// result cache, runs `scan` once per chunk of the rest, and finalizes each
/// chunk with one mask join (JoinBatchMatches) over every class's hidden
/// intervals. The chunk's shared work — its scan operators, the join and
/// the batch counters — lands on the chunk's first class; every other class
/// carries an empty "scan" and "join" operator and its own "visibility"
/// operator, so each class result has the per-subject operator shape and
/// the batch rollup is the sum of the class rollups.
Result<SubjectBatchResult> EvaluateClassBatch(
    SecureStore* store, const SecureStore::SnapshotPin& pin,
    const PatternTree& pattern, std::span<const SubjectId> subjects,
    const EvalOptions& options, const QueryCaches& caches,
    const ChunkScan& scan);

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
///  3. One mask-valued ε-STD join per chunk (JoinBatchMatches) applies
///     every class's view-semantics visibility filter, validity and reach
///     at once and fans the answers out by class. For each class it equals
///     the per-subject evaluator's FilterMatchesVisible + JoinMatches on
///     the class's projection of the matches, so per-class results equal
///     QueryEvaluator::Evaluate for the class representative.
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
