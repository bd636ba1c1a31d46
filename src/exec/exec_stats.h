#ifndef SECXML_EXEC_EXEC_STATS_H_
#define SECXML_EXEC_EXEC_STATS_H_

#include <cstdint>
#include <vector>

namespace secxml {

/// Per-cursor / per-operator execution counters for the secure query path.
/// Every SecureCursor accumulates one of these while it runs; operators roll
/// their cursors' stats into the query's EvalResult and QueryDriver rolls
/// queries into BatchStats. The counters make the paper's central claim —
/// accessibility checks add no I/O to NoK evaluation — a *measured* value
/// (`access_only_fetches == 0` on the DOL path) instead of an inference.
///
/// A single ExecStats is only ever written by one thread (each worker owns
/// its cursors); aggregation happens after workers join, so plain uint64
/// fields suffice.
struct ExecStats {
  /// Records materialized by a cursor (candidates, children, swept slots).
  uint64_t nodes_scanned = 0;
  /// ACCESS checks actually performed (a DOL code decoded and probed).
  uint64_t codes_checked = 0;
  /// Always 0: every secure cursor decodes and checks each scanned record's
  /// code. Kept so existing stat readers keep building.
  uint64_t checks_elided = 0;
  /// Distinct page loads avoided via wholly-dead page verdicts (the
  /// Section 3.3 page skip). Matches IoStats::pages_skipped accounting.
  uint64_t pages_skipped = 0;
  /// Pages handed to the background readahead by this cursor.
  uint64_t pages_prefetched = 0;
  /// Buffer-pool fetches that had to wait on a physical read (misses);
  /// cache hits and skipped pages cost no wait.
  uint64_t fetch_waits = 0;
  /// Page fetches issued *solely* to resolve an access code, i.e. I/O the
  /// structural scan would not have done anyway. Structurally zero for the
  /// DOL cursor (the code is decoded from the record's own page within the
  /// same fetch); a non-zero value means the zero-extra-I/O property broke.
  uint64_t access_only_fetches = 0;

  // Multi-subject batch evaluation counters (zero on single-subject paths).

  /// Subjects answered by this evaluation. 1 for a per-subject query; the
  /// batch size for QueryDriver::EvaluateForSubjects.
  uint64_t subjects_batched = 0;
  /// Visibility equivalence classes actually evaluated (each class runs the
  /// structural scan once; its members share the answer byte-for-byte).
  uint64_t classes_evaluated = 0;
  /// Subjects served from another class member's evaluation:
  /// subjects_batched - classes_evaluated.
  uint64_t class_dedup_hits = 0;

  /// Epoch snapshot pins taken by this evaluation (one per query or batch:
  /// the whole evaluation runs against the pinned snapshot while updates
  /// commit concurrently — DESIGN.md §11).
  uint64_t epoch_pins = 0;

  // Sharded scatter-gather counters (zero on single-store paths).

  /// Shards this evaluation scattered matching work to (the coordinator's
  /// fan-out width, counted once per scatter — DESIGN.md §13).
  uint64_t shards_scattered = 0;
  /// Document-order comparisons spent merging per-shard match streams back
  /// into one global stream (each merged match verifies its root against
  /// the running maximum, so the merge proves the order it claims).
  uint64_t merge_comparisons = 0;

  // Cross-request result-cache counters (zero when no cache is attached —
  // DESIGN.md §14). Reported on a "cache" operator so the rollup-sum
  // identity over classes/queries holds like every other counter.

  /// Queries (or batch classes) answered from the class-keyed ResultCache
  /// instead of a live evaluation.
  uint64_t result_cache_hits = 0;
  /// Queries (or batch classes) that probed the ResultCache and had to
  /// evaluate live (their answer was published afterwards).
  uint64_t result_cache_misses = 0;
  /// Freshly computed answers whose cache publish was rejected because an
  /// invalidation (or the byte budget) raced the evaluation — the live
  /// answer served is still correct; only the cache declined to keep it.
  uint64_t result_cache_invalidations = 0;
  /// Times this query blocked on another caller's in-flight evaluation of
  /// the same key (single-flight collapse) before being served.
  uint64_t single_flight_waits = 0;

  ExecStats& operator+=(const ExecStats& o) {
    nodes_scanned += o.nodes_scanned;
    codes_checked += o.codes_checked;
    checks_elided += o.checks_elided;
    pages_skipped += o.pages_skipped;
    pages_prefetched += o.pages_prefetched;
    fetch_waits += o.fetch_waits;
    access_only_fetches += o.access_only_fetches;
    subjects_batched += o.subjects_batched;
    classes_evaluated += o.classes_evaluated;
    class_dedup_hits += o.class_dedup_hits;
    epoch_pins += o.epoch_pins;
    shards_scattered += o.shards_scattered;
    merge_comparisons += o.merge_comparisons;
    result_cache_hits += o.result_cache_hits;
    result_cache_misses += o.result_cache_misses;
    result_cache_invalidations += o.result_cache_invalidations;
    single_flight_waits += o.single_flight_waits;
    return *this;
  }
};

/// One named operator's contribution to a query (scan, visibility, join).
struct OperatorStats {
  const char* op = "";
  ExecStats stats;
};

/// Rolls a per-operator breakdown up into one total.
inline ExecStats RollUp(const std::vector<OperatorStats>& operators) {
  ExecStats total;
  for (const OperatorStats& o : operators) total += o.stats;
  return total;
}

}  // namespace secxml

#endif  // SECXML_EXEC_EXEC_STATS_H_
