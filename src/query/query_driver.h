#ifndef SECXML_QUERY_QUERY_DRIVER_H_
#define SECXML_QUERY_QUERY_DRIVER_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/secure_store.h"
#include "exec/exec_stats.h"
#include "query/batch_evaluator.h"
#include "query/evaluator.h"
#include "query/pattern_tree.h"
#include "query/query_cache.h"
#include "storage/io_stats.h"

namespace secxml {

/// One unit of work for the parallel driver: one subject evaluating one twig
/// pattern against the shared store.
struct QueryJob {
  SubjectId subject = 0;
  PatternTree pattern;
};

/// Driver-wide evaluation settings; per-job settings live in QueryJob.
struct QueryDriverOptions {
  /// Worker threads. 1 runs the batch inline on the calling thread (the
  /// serial baseline); the driver never spawns more workers than jobs.
  size_t num_threads = 1;
  AccessSemantics semantics = AccessSemantics::kBinding;
  bool page_skip = true;
  bool ordered_siblings = false;
  /// Cross-request caches (DESIGN.md §14). Both default off (null): every
  /// existing call site keeps its exact pre-cache behavior. With a result
  /// cache attached, workers probe (class fingerprint, normalized query)
  /// before evaluating and publish after, with single-flight collapsing of
  /// concurrent misses; with a plan cache attached, PrepareQuery runs once
  /// per distinct pattern instead of once per job.
  QueryCaches caches;
};

/// Outcome of one job, index-aligned with the submitted batch.
struct QueryOutcome {
  Status status = Status::OK();
  EvalResult result;
  int64_t latency_micros = 0;
};

/// Aggregates over one batch run.
struct BatchStats {
  int64_t wall_micros = 0;
  double mean_latency_micros = 0;
  int64_t p95_latency_micros = 0;
  int64_t max_latency_micros = 0;
  size_t failed = 0;
  /// Status of the first failed outcome in batch order (OK when failed == 0).
  /// A failed query never poisons the batch; this is a summary for callers
  /// that only look at stats.
  Status first_error = Status::OK();
  /// Buffer-pool traffic incurred by this batch (delta of the store's
  /// counters across the run).
  IoStatsSnapshot io;
  /// Execution-counter rollup over the batch's successful outcomes (sum of
  /// each EvalResult's operator rollup). `exec.access_only_fetches` staying
  /// 0 across a whole batch is the paper's zero-extra-I/O claim at batch
  /// granularity.
  ExecStats exec;

  double QueriesPerSecond(size_t num_queries) const {
    return wall_micros > 0
               ? static_cast<double>(num_queries) * 1e6 /
                     static_cast<double>(wall_micros)
               : 0.0;
  }
};

struct BatchResult {
  std::vector<QueryOutcome> outcomes;
  BatchStats stats;
};

/// Fills `batch->stats` failure, exec, and latency aggregates from its
/// outcomes: failed count with first_error in batch order, the exec rollup
/// over successful outcomes, and latency mean/p95/max. A failed outcome
/// never poisons the batch — whether a whole query failed (QueryDriver) or
/// one shard of its scatter did (ShardCoordinator), the other outcomes keep
/// their results and stats. wall_micros and io are the caller's to fill
/// (they depend on how the batch ran). No-op on an empty batch.
void AggregateBatchStats(BatchResult* batch);

/// Parallel secure-query driver: evaluates a batch of (subject, pattern)
/// jobs over one shared SecureStore on a fixed-size worker pool. Each worker
/// owns its QueryEvaluator/NokMatcher state; the store is only read (the
/// thread-safe surface documented on SecureStore/NokStore/BufferPool), so
/// per-query results are identical to evaluating the same jobs serially.
/// Jobs are handed out through an atomic cursor, so long and short queries
/// balance across workers.
///
/// The driver itself is stateless between Run() calls. Store updates (ACL
/// or structural) may commit concurrently with Run(): every query pins one
/// epoch snapshot for its whole evaluation, so each answer reflects exactly
/// one committed state.
class QueryDriver {
 public:
  QueryDriver(SecureStore* store, const QueryDriverOptions& options)
      : store_(store), options_(options) {}

  /// Evaluates the batch; outcomes[i] corresponds to jobs[i]. A failed
  /// query fails only its own outcome, never the batch.
  BatchResult Run(const std::vector<QueryJob>& jobs);

  /// Evaluates one pattern for a whole batch of subjects with the
  /// word-parallel batch pipeline (BatchEvaluator): subjects collapse into
  /// visibility equivalence classes, each chunk of at most kMaxBatchClasses
  /// (512) classes shares one structural scan, and every subject's answer
  /// is byte-identical to a per-subject Run() of the same query. Uses the
  /// driver's semantics, page_skip, and ordered_siblings settings.
  Result<SubjectBatchResult> EvaluateForSubjects(
      const PatternTree& pattern, std::span<const SubjectId> subjects);

  /// Convenience: builds jobs from (subject, XPath) pairs. Fails on the
  /// first unparsable query.
  static Result<std::vector<QueryJob>> MakeJobs(
      const std::vector<std::pair<SubjectId, std::string>>& queries);

 private:
  SecureStore* store_;
  QueryDriverOptions options_;
};

}  // namespace secxml

#endif  // SECXML_QUERY_QUERY_DRIVER_H_
