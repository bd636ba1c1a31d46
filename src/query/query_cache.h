#ifndef SECXML_QUERY_QUERY_CACHE_H_
#define SECXML_QUERY_QUERY_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "cache/cache_key.h"
#include "cache/plan_cache.h"
#include "cache/result_cache.h"
#include "core/secure_store.h"
#include "query/evaluator.h"

namespace secxml {

/// The query layer's view of the cross-request caches (DESIGN.md §14):
/// glue between the payload-agnostic src/cache machinery and
/// EvalResult/PreparedQuery/SecureStore. Everything here is pure plumbing —
/// the correctness story (epoch validation, footprints, invalidation
/// ordering) lives in ResultCache and SecureStore::AddCommitHook.

/// A materialized secure answer as stored in the ResultCache: the answer
/// node set plus the diagnostic counters of the evaluation that produced it
/// (reported by the cache's stats surfaces, never re-added to live rollups
/// — a hit costs none of the saved work).
class CachedEvalResult : public cache::CacheableResult {
 public:
  std::vector<NodeId> answers;
  size_t fragment_matches = 0;
  ExecStats saved_exec;

  size_t ApproxBytes() const override {
    return sizeof(*this) + answers.size() * sizeof(NodeId);
  }
};

/// Plans are keyed on the normalized pattern alone (pattern-pure, no
/// invalidation — see PlanCache).
using QueryPlanCache = cache::PlanCache<PreparedQuery>;

/// The cache pointers a driver/coordinator threads through to its workers.
/// Null members disable that cache; both default off, so every existing
/// call site keeps its exact pre-cache behavior.
struct QueryCaches {
  cache::ResultCache* results = nullptr;
  QueryPlanCache* plans = nullptr;

  /// The result cache, honoring the SECXML_DISABLE_RESULT_CACHE escape
  /// hatch (the CI differential leg runs the whole suite with the cache
  /// force-disabled).
  cache::ResultCache* ResultsEnabled() const;
};

/// True when SECXML_DISABLE_RESULT_CACHE=1 is set (read once).
bool ResultCacheDisabled();

/// Injective encoding of a pattern tree: two patterns encode equal iff they
/// are structurally identical (same tags, value tests, axes, parents, and
/// returning node). The debug ToString is ambiguous (a tag containing '/'
/// would collide); cache keys use this instead.
std::string NormalizePattern(const PatternTree& pattern);

/// Assembles a result-cache key. `column` is the subject's visibility-class
/// fingerprint; pass a default-constructed ({0,0}) fingerprint for kNone,
/// where the answer does not depend on any subject.
cache::ResultKey MakeResultKey(const std::string& normalized_pattern,
                               const ColumnFingerprint& column,
                               AccessSemantics semantics, bool ordered);

/// Computes the ACL dependency footprint of `pq` against the calling
/// thread's snapshot of `store`: a document-order range [begin, end)
/// outside which no accessibility change can alter the query's secure
/// answer, or acl_independent for semantics-free evaluation. For binding
/// semantics the range is the hull of every pattern tag's posting list
/// (only bound nodes are access-checked); view semantics extends it to
/// [0, end) because a hidden subtree is rooted at an *ancestor* of a match,
/// and ancestors precede their subtree in document order. Wildcard tags
/// widen to the whole document. Structural updates flush the cache outright
/// (CommitEvent::kStructural), so the footprint only ever faces ACL patches
/// over a fixed node numbering.
void QueryFootprint(SecureStore* store, const PreparedQuery& pq,
                    AccessSemantics semantics, uint64_t* begin, uint64_t* end,
                    bool* acl_independent);

/// Subscribes `cache` to `store`'s commits: ACL patches invalidate the
/// updated subject's class by range, subject additions are no-ops
/// (existing columns and answers are untouched), structural and shape
/// changes flush. The hook fires inside
/// the store's snapshot-publication critical section (see AddCommitHook),
/// which is what makes a served hit provably fresh; `cache` must outlive
/// `store`.
void AttachResultCacheInvalidation(SecureStore* store,
                                   cache::ResultCache* cache);

/// Resolves the prepared plan for `pattern`: plan-cache lookup under the
/// normalized key when `pcache` is attached (concurrent resolvers converge
/// on the resident instance), a fresh PrepareQuery otherwise.
Result<std::shared_ptr<const PreparedQuery>> ResolvePlan(
    const PatternTree& pattern, const std::string& normalized,
    QueryPlanCache* pcache);

/// Builds the EvalResult a cache hit serves: the cached answers plus one
/// "cache" operator whose counters record the hit (and any single-flight
/// waits). The saved evaluation's counters are NOT folded in — a hit did
/// none of that work.
EvalResult MakeCachedResult(
    const std::shared_ptr<const cache::CacheableResult>& payload,
    uint32_t waits);

/// Packages a live evaluation's outcome for publication.
std::shared_ptr<const CachedEvalResult> MakeCachePayload(
    const EvalResult& result);

/// Full cached evaluation of one (subject, pattern) job: plan-cache lookup
/// (or a fresh PrepareQuery), then — for a known subject (InvalidArgument
/// otherwise) — a blocking result-cache probe (single-flight: concurrent
/// misses on one key evaluate once) and, on a miss, `evaluate` of the
/// resolved plan followed by publication. With both caches null (or the
/// result cache disabled by env) this is exactly `evaluate`. The body of
/// EvaluateWithCaches and of ShardCoordinator::Evaluate. The caller must
/// not hold a flight on another key (QueryDriver workers never do — one
/// job at a time).
Result<EvalResult> EvaluateSubjectWithCaches(
    SecureStore* store, const PatternTree& pattern, const EvalOptions& options,
    const QueryCaches& caches,
    const std::function<Result<EvalResult>(const PreparedQuery&)>& evaluate);

/// EvaluateSubjectWithCaches with QueryEvaluator::EvaluatePrepared as the
/// live evaluation: with both caches null this is exactly
/// QueryEvaluator::Evaluate.
Result<EvalResult> EvaluateWithCaches(SecureStore* store, QueryEvaluator* eval,
                                      const PatternTree& pattern,
                                      const EvalOptions& options,
                                      const QueryCaches& caches);

/// RAII leadership guard: a kMissLead caller arms one of these so the
/// flight is abandoned (waking waiters) on every early-exit path; Publish
/// disarms it.
class FlightGuard {
 public:
  FlightGuard(cache::ResultCache* cache, cache::ResultKey key)
      : cache_(cache), key_(std::move(key)) {}
  ~FlightGuard() {
    if (armed_) cache_->Abandon(key_);
  }
  FlightGuard(const FlightGuard&) = delete;
  FlightGuard& operator=(const FlightGuard&) = delete;

  /// Publishes and disarms. Returns Publish's verdict (false = the entry
  /// was rejected by a racing invalidation or the byte budget).
  bool Publish(cache::ResultCache::Entry entry) {
    armed_ = false;
    return cache_->Publish(key_, std::move(entry));
  }

 private:
  cache::ResultCache* cache_;
  cache::ResultKey key_;
  bool armed_ = true;
};

}  // namespace secxml

#endif  // SECXML_QUERY_QUERY_CACHE_H_
