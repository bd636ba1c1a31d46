#ifndef SECXML_SERVE_SHARD_COORDINATOR_H_
#define SECXML_SERVE_SHARD_COORDINATOR_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/result.h"
#include "query/batch_evaluator.h"
#include "query/evaluator.h"
#include "query/query_driver.h"
#include "serve/sharded_store.h"

namespace secxml {

struct ShardCoordinatorOptions {
  /// Scatter worker threads; 0 = one per shard (the natural width: each
  /// task is one shard's scan, and per-shard buffer pools overlap their
  /// physical reads across workers).
  size_t num_threads = 0;
  AccessSemantics semantics = AccessSemantics::kBinding;
  bool page_skip = true;
  bool ordered_siblings = false;
  /// Batch evaluation: cap on visibility classes per structural scan
  /// (see EvalOptions::batch_chunk_classes).
  size_t batch_chunk_classes = 0;
  /// Cross-request caches (DESIGN.md §14), probed at the COORDINATOR —
  /// before any scatter — so a hit skips every shard's scan. Invalidation
  /// attaches to shard 0 (AttachResultCacheInvalidation on shard_store(0)):
  /// every update reaches shard 0 under the exclusive fence and replicas
  /// publish in epoch lockstep, so shard 0's commit stream covers the
  /// fleet. Defaults off.
  QueryCaches caches;
};

/// Scatter-gather query front end over a ShardedStore (DESIGN.md §13).
///
/// Scatter: each shard runs the fragment matchers with its owned node range
/// as the candidate window ([ShardRange.first_node, end_node)), on its own
/// replica, buffer pool, and — for batches — its own MultiSubjectCursor
/// mask tables. The ranges tile [0, num_nodes), so across shards every
/// candidate is matched exactly once, and because each replica holds the
/// full structure, a match whose subtree spans past the shard boundary is
/// produced whole by the candidate's owner.
///
/// Gather: shard ranges ascend in document order, so concatenating the
/// per-shard match streams shard-by-shard IS the document-order merge; each
/// appended match verifies its root against the running maximum
/// (merge_comparisons) so the order the join requires is proved, not
/// assumed. The ε-STD join — and for batches the per-class projection,
/// visibility filter, and join (the shared FinalizeClassEval) — then runs
/// once at the coordinator on the merged streams, making every answer
/// byte-identical to the single-store evaluators'.
///
/// Class routing: GroupSubjects runs ONCE at the coordinator (all replicas
/// share one codebook state, so shard 0 answers for everyone); each shard
/// then evaluates each equivalence class at most once per chunk via its
/// local multi-subject cursor.
///
/// Failure: scatter tasks fail independently. In Run(), one shard's I/O
/// error fails only the jobs whose scatter touched it (first failing shard
/// in shard order, surfaced through AggregateBatchStats::first_error); the
/// rest of the batch completes normally.
class ShardCoordinator {
 public:
  ShardCoordinator(ShardedStore* store, const ShardCoordinatorOptions& options)
      : store_(store), options_(options) {}

  /// One subject, one query, scattered across every shard.
  Result<EvalResult> Evaluate(const PatternTree& pattern, SubjectId subject);

  /// The sharded analogue of QueryDriver::Run: every (job, shard) scan is
  /// one pool task. Outcomes align with jobs; a failed job never poisons
  /// the batch.
  BatchResult Run(const std::vector<QueryJob>& jobs);

  /// The sharded analogue of QueryDriver::EvaluateForSubjects: subjects
  /// group into visibility classes once, each chunk's multi-subject scan
  /// scatters across shards, and per-class answers are byte-identical to
  /// BatchEvaluator's.
  Result<SubjectBatchResult> EvaluateForSubjects(
      const PatternTree& pattern, std::span<const SubjectId> subjects);

 private:
  /// Matches every fragment of `pq` on shard `s` within its owned candidate
  /// window. Runs on a scatter worker (takes its own per-shard SnapshotPin;
  /// the caller holds the fence). View-semantics visibility filtering runs
  /// at the coordinator on the merged streams, matching the single-store
  /// operator order.
  struct ShardScan {
    Status status = Status::OK();
    std::vector<std::vector<FragmentMatch>> matches;
    ExecStats scan;
    int64_t micros = 0;
  };
  ShardScan ScanShard(size_t s, const PreparedQuery& pq, SubjectId subject);

  /// Gathers per-shard streams into document-order merged `matches`,
  /// verifying order and counting the merge work into `merge`.
  Status GatherMatches(const std::vector<ShardScan>& scans,
                       std::vector<std::vector<FragmentMatch>>* matches,
                       ExecStats* merge, size_t* fragment_matches);

  /// Body of Evaluate once the caller holds a ShardedStore::Pin and a
  /// resolved plan (so the batch path can reuse the pin and the cache path
  /// shares the plan with its probe).
  Result<EvalResult> EvaluatePinned(const PreparedQuery& pq,
                                    SubjectId subject);

  /// Cache-aware body of Evaluate under the caller's fence pin: resolves
  /// the plan (through the plan cache), probes the result cache with
  /// single-flight, scatters only on a miss, publishes after the join.
  Result<EvalResult> EvaluateCachedPinned(const ShardedStore::Pin& pin,
                                          const PatternTree& pattern,
                                          SubjectId subject);

  /// Runs `fn(shard)` for every shard on the scatter pool.
  void RunOnShards(const std::function<void(size_t)>& fn);

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
