#include "query/query_cache.h"

#include <algorithm>
#include <cstdlib>

#include "nok/nok_store.h"

namespace secxml {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

void AppendStr(std::string* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

}  // namespace

bool ResultCacheDisabled() {
  static const bool disabled = [] {
    const char* v = std::getenv("SECXML_DISABLE_RESULT_CACHE");
    return v != nullptr && v[0] == '1';
  }();
  return disabled;
}

cache::ResultCache* QueryCaches::ResultsEnabled() const {
  return ResultCacheDisabled() ? nullptr : results;
}

std::string NormalizePattern(const PatternTree& pattern) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(pattern.nodes.size()));
  for (const PatternNode& n : pattern.nodes) {
    AppendStr(&out, n.tag);
    out.push_back(n.has_value ? 1 : 0);
    if (n.has_value) AppendStr(&out, n.value);
    out.push_back(n.descendant_axis ? 1 : 0);
    AppendU32(&out, static_cast<uint32_t>(n.parent));
  }
  AppendU32(&out, static_cast<uint32_t>(pattern.returning_node));
  return out;
}

cache::ResultKey MakeResultKey(const std::string& normalized_pattern,
                               const ColumnFingerprint& column,
                               AccessSemantics semantics, bool ordered) {
  cache::ResultKey key;
  key.column_hi = column.hi;
  key.column_lo = column.lo;
  key.query = normalized_pattern;
  key.semantics = static_cast<uint8_t>(semantics);
  key.ordered = ordered;
  return key;
}

void QueryFootprint(SecureStore* store, const PreparedQuery& pq,
                    AccessSemantics semantics, uint64_t* begin, uint64_t* end,
                    bool* acl_independent) {
  *begin = 0;
  *end = 0;
  *acl_independent = semantics == AccessSemantics::kNone;
  if (*acl_independent) return;

  // Hull of every pattern node's candidate range. The matcher consults
  // accessibility only for nodes that pass a pattern tag test (binding
  // semantics binds only pattern nodes; the view filter only moves match
  // roots, handled below), so nodes outside every tag's posting range
  // cannot influence the answer through their ACLs.
  NokStore* nok = store->nok();
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  bool any = false;
  for (const QueryFragment& frag : pq.query.fragments) {
    for (const PatternNode& n : frag.tree.nodes) {
      if (n.tag == "*") {
        lo = 0;
        hi = nok->num_nodes();
        any = true;
        continue;
      }
      TagId tag = nok->tags().Lookup(n.tag);
      if (tag == kInvalidTag) continue;  // tag absent: no candidates at all
      const std::vector<NodeId>& postings = nok->Postings(tag);
      if (postings.empty()) continue;
      lo = std::min<uint64_t>(lo, postings.front());
      hi = std::max<uint64_t>(hi, static_cast<uint64_t>(postings.back()) + 1);
      any = true;
    }
  }
  if (!any) {
    // No pattern tag exists in the document: the answer is empty and no
    // ACL change can alter that (only structural updates could, and those
    // flush the cache).
    *acl_independent = true;
    return;
  }
  // View semantics: a match root is suppressed when any *ancestor* is
  // inaccessible, and ancestors precede their subtree in document order —
  // so the dependency range extends to the document start.
  *begin = semantics == AccessSemantics::kView ? 0 : lo;
  *end = hi;
}

void AttachResultCacheInvalidation(SecureStore* store,
                                   cache::ResultCache* cache) {
  store->AddCommitHook([cache](const SecureStore::CommitEvent& ev) {
    switch (ev.kind) {
      case SecureStore::CommitEvent::Kind::kAclPatch:
        // Only the updated subject's class can have changed answers.
        cache->InvalidateAclRange(ev.fingerprint.hi, ev.fingerprint.lo,
                                  ev.begin, ev.end, ev.epoch);
        break;
      case SecureStore::CommitEvent::Kind::kSubjectAdded:
        // Existing columns (and therefore fingerprints and answers) are
        // untouched by an appended subject; nothing to do.
        break;
      case SecureStore::CommitEvent::Kind::kStructural:
      case SecureStore::CommitEvent::Kind::kShapeChange:
        cache->Flush(ev.epoch);
        break;
    }
  });
}

Result<std::shared_ptr<const PreparedQuery>> ResolvePlan(
    const PatternTree& pattern, const std::string& normalized,
    QueryPlanCache* pcache) {
  std::shared_ptr<const PreparedQuery> plan;
  if (pcache != nullptr) plan = pcache->Get(normalized);
  if (plan == nullptr) {
    auto fresh = std::make_shared<PreparedQuery>();
    SECXML_RETURN_NOT_OK(PrepareQuery(pattern, fresh.get()));
    plan = pcache != nullptr
               ? pcache->Insert(normalized, std::move(fresh))
               : std::shared_ptr<const PreparedQuery>(std::move(fresh));
  }
  return plan;
}

EvalResult MakeCachedResult(
    const std::shared_ptr<const cache::CacheableResult>& payload,
    uint32_t waits) {
  const auto* cached = static_cast<const CachedEvalResult*>(payload.get());
  EvalResult result;
  result.answers = cached->answers;
  result.fragment_matches = cached->fragment_matches;
  ExecStats cache_stats;
  cache_stats.result_cache_hits = 1;
  cache_stats.single_flight_waits = waits;
  // The probing caller pinned a snapshot to validate the entry against;
  // keep the one-pin-per-query accounting the live path reports.
  cache_stats.epoch_pins = 1;
  result.operators.push_back({"cache", cache_stats});
  result.exec = RollUp(result.operators);
  return result;
}

std::shared_ptr<const CachedEvalResult> MakeCachePayload(
    const EvalResult& result) {
  auto payload = std::make_shared<CachedEvalResult>();
  payload->answers = result.answers;
  payload->fragment_matches = result.fragment_matches;
  payload->saved_exec = result.exec;
  return payload;
}

Result<EvalResult> EvaluateWithCaches(SecureStore* store, QueryEvaluator* eval,
                                      const PatternTree& pattern,
                                      const EvalOptions& options,
                                      const QueryCaches& caches) {
  cache::ResultCache* rcache = caches.ResultsEnabled();
  QueryPlanCache* pcache = caches.plans;

  std::string normalized;
  if (rcache != nullptr || pcache != nullptr) {
    normalized = NormalizePattern(pattern);
  }
  SECXML_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> plan,
                          ResolvePlan(pattern, normalized, pcache));
  if (rcache == nullptr) return eval->EvaluatePrepared(*plan, options);

  // Pin before probing so the probe epoch and the (possible) live
  // evaluation agree on one snapshot — EvaluatePrepared's inner pin adopts
  // this one.
  SecureStore::SnapshotPin pin(store);
  ColumnFingerprint fp;  // {0,0} when the answer is subject-independent
  if (options.semantics != AccessSemantics::kNone) {
    fp = store->SubjectColumnFingerprint(options.subject);
  }
  cache::ResultKey key = MakeResultKey(normalized, fp, options.semantics,
                                       options.ordered_siblings);
  cache::ResultCache::Probe probe = rcache->GetOrWait(key, pin.epoch());
  if (probe.outcome == cache::ResultCache::ProbeOutcome::kHit) {
    return MakeCachedResult(probe.payload, probe.waits);
  }
  FlightGuard flight(rcache, key);
  Result<EvalResult> r = eval->EvaluatePrepared(*plan, options);
  if (!r.ok()) return r;  // the guard abandons the flight

  cache::ResultCache::Entry entry;
  entry.payload = MakeCachePayload(*r);
  entry.epoch = pin.epoch();
  QueryFootprint(store, *plan, options.semantics, &entry.begin, &entry.end,
                 &entry.acl_independent);
  const bool admitted = flight.Publish(std::move(entry));

  ExecStats cache_stats;
  cache_stats.result_cache_misses = 1;
  cache_stats.single_flight_waits = probe.waits;
  if (!admitted) cache_stats.result_cache_invalidations = 1;
  r->operators.push_back({"cache", cache_stats});
  r->exec = RollUp(r->operators);
  return r;
}

}  // namespace secxml
