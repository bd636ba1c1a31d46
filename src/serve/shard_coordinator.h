#ifndef SECXML_SERVE_SHARD_COORDINATOR_H_
#define SECXML_SERVE_SHARD_COORDINATOR_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/result.h"
#include "query/batch_evaluator.h"
#include "query/evaluator.h"
#include "query/query_driver.h"
#include "serve/sharded_store.h"

namespace secxml {

struct ShardCoordinatorOptions {
  /// Scatter worker threads; 0 = one per window (the natural width: each
  /// task is one window's scan, and the workers overlap their physical
  /// reads in the store's buffer pool).
  size_t num_threads = 0;
  AccessSemantics semantics = AccessSemantics::kBinding;
  bool page_skip = true;
  bool ordered_siblings = false;
  /// Cross-request caches (DESIGN.md §14), probed at the COORDINATOR —
  /// before any scatter — so a hit skips every window's scan. Invalidation
  /// attaches to the one store (AttachResultCacheInvalidation on
  /// ShardedStore::store()). Defaults off.
  QueryCaches caches;
};

/// Scatter-gather query front end over a ShardedStore (DESIGN.md §13).
///
/// One snapshot per request: Evaluate, Run and EvaluateForSubjects each take
/// one SecureStore::SnapshotPin, cut the pinned snapshot into the store's
/// candidate windows (ShardedStore::Windows), and every scatter worker adopts
/// that pin on its own thread. All windows of a request therefore read one
/// epoch while a writer commits, and the windows always tile the node count
/// of that epoch.
///
/// Scatter: each window runs one MultiSubjectMatcher with its node range as
/// the candidate window ([ShardRange.first_node, end_node)) over the one
/// store and buffer pool — a single subject as a one-class scan, a batch
/// chunk with every class of the chunk, each window's scan with its own
/// cursor. The ranges tile [0, num_nodes), so every candidate is matched
/// exactly once, and because every window reads the full structure, a
/// match whose subtree spans past the window's end is produced whole by the
/// window holding its root. Evaluate, Run and EvaluateForSubjects all use
/// this one window scan.
///
/// Gather: windows ascend in document order, so concatenating the
/// per-window match streams window by window IS the document-order merge;
/// each appended match verifies its root against the running maximum
/// (merge_comparisons) so the order the join requires is proved, not
/// assumed. The window scans are not read again, so their matches move
/// into the merged streams. The mask ε-STD join (JoinBatchMatches) then
/// runs once at the coordinator on the merged streams through the same
/// chunk finalize as the single-store evaluators (EvaluateOneClass,
/// EvaluateClassBatch), making every answer byte-identical to theirs.
///
/// Class routing: EvaluateForSubjects runs BatchEvaluator's own pipeline
/// (EvaluateClassBatch) at the coordinator under the request's pin —
/// GroupSubjects, cache probes and the chunk finalize happen once — with
/// each chunk's structural scan scattered across the windows, so each
/// window evaluates each equivalence class at most once per chunk via its
/// multi-subject cursor.
///
/// Unknown subjects (access-controlled semantics) are InvalidArgument
/// before any cache probe or scan; in Run() only the affected job fails.
///
/// Failure: scatter tasks fail independently. In Run(), one window's I/O
/// error fails only the jobs whose scatter touched it (first failing window
/// in window order, surfaced through AggregateBatchStats::first_error); the
/// rest of the batch completes normally.
class ShardCoordinator {
 public:
  ShardCoordinator(ShardedStore* store, const ShardCoordinatorOptions& options)
      : store_(store), options_(options) {}

  /// One subject, one query, scattered across every window.
  Result<EvalResult> Evaluate(const PatternTree& pattern, SubjectId subject);

  /// The scattered analogue of QueryDriver::Run: every (job, window) scan is
  /// one pool task. Outcomes align with jobs; a failed job never poisons
  /// the batch.
  BatchResult Run(const std::vector<QueryJob>& jobs);

  /// The scattered analogue of QueryDriver::EvaluateForSubjects: subjects
  /// group into visibility classes once, each chunk's multi-subject scan
  /// scatters across windows, and per-class answers are byte-identical to
  /// BatchEvaluator's.
  Result<SubjectBatchResult> EvaluateForSubjects(
      const PatternTree& pattern, std::span<const SubjectId> subjects);

 private:
  /// One window's structural scan: every fragment of `pq` for the classes
  /// `reps` within candidate window `range`. Runs on a scatter worker,
  /// which adopts the request's pin `pin`. View-semantics visibility
  /// filtering runs at the coordinator on the merged streams, matching the
  /// single-store operator order.
  struct WindowScan {
    Status status = Status::OK();
    std::vector<std::vector<BatchFragmentMatch>> matches;
    ExecStats scan;
    int64_t micros = 0;
  };
  WindowScan ScanWindow(const SecureStore::SnapshotPin& pin,
                        const ShardRange& range, const PreparedQuery& pq,
                        const std::vector<SubjectId>& reps);

  /// Gathers per-window streams into document-order merged `matches`,
  /// verifying order, and appends one "scan" operator per window plus the
  /// "merge" operator. The windows' matches are moved out, not copied.
  static Status GatherWindows(
      std::vector<WindowScan>* scans,
      std::vector<std::vector<BatchFragmentMatch>>* matches,
      std::vector<OperatorStats>* operators);

  /// A request's chunk scan (a ChunkScan): ScanWindow on every window of
  /// the pinned snapshot, then GatherWindows.
  Status ScatterScan(const SecureStore::SnapshotPin& pin,
                     const PreparedQuery& pq,
                     const std::vector<SubjectId>& reps,
                     std::vector<std::vector<BatchFragmentMatch>>* matches,
                     std::vector<OperatorStats>* operators);

  /// Body of Evaluate under the request's pin: the single-subject cache
  /// path (EvaluateSubjectWithCaches) around a one-class chunk whose scan
  /// scatters across the windows, so a cache hit never scatters.
  Result<EvalResult> EvaluateCachedPinned(const SecureStore::SnapshotPin& pin,
                                          const PatternTree& pattern,
                                          SubjectId subject);

  /// Runs `fn(task)` for every task in [0, tasks) on the scatter pool.
  void RunTasks(size_t tasks, const std::function<void(size_t)>& fn);

  size_t scatter_width() const {
    return options_.num_threads == 0 ? store_->num_shards()
                                     : options_.num_threads;
  }

  EvalOptions MakeEvalOptions(SubjectId subject) const;

  ShardedStore* store_;
  ShardCoordinatorOptions options_;
};

}  // namespace secxml

#endif  // SECXML_SERVE_SHARD_COORDINATOR_H_
