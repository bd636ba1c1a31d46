#include "query/batch_evaluator.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>

#include "core/codebook.h"
#include "query/batch_join.h"

namespace secxml {

namespace {

/// Batch accounting for one chunk, reported as a "batch" operator on the
/// chunk's first class (the same attribution convention as the visibility
/// sweep: shared work lands on the evaluation that performed it, and the
/// rollup-sum identity over classes stays exact).
ExecStats BatchCounters(size_t subjects, size_t classes) {
  ExecStats s;
  s.subjects_batched = subjects;
  s.classes_evaluated = classes;
  s.class_dedup_hits = subjects - classes;
  return s;
}

/// Finalizes one scanned chunk: fetches each class's hidden intervals (view
/// semantics, from `store`'s per-epoch cache — a class's intervals are its
/// representative's), runs the one mask join, and fills `out[k]` for class
/// k with its answers, fragment_matches and operators. The first class
/// takes `shared_ops` and the join's work; the others an empty "scan" and
/// "join". The caller appends the batch and cache operators.
Status FinalizeChunk(SecureStore* store, const PreparedQuery& pq,
                     const EvalOptions& options,
                     const std::vector<SubjectId>& reps,
                     const std::vector<std::vector<BatchFragmentMatch>>& matches,
                     std::vector<OperatorStats> shared_ops,
                     std::span<EvalResult* const> out) {
  const size_t width = reps.size();
  std::vector<ExecStats> vis_stats;
  std::vector<std::shared_ptr<const std::vector<NodeInterval>>> hidden;
  std::vector<const std::vector<NodeInterval>*> hidden_of;
  if (options.semantics == AccessSemantics::kView) {
    vis_stats.resize(width);
    hidden.reserve(width);
    hidden_of.reserve(width);
    for (size_t k = 0; k < width; ++k) {
      SECXML_ASSIGN_OR_RETURN(
          std::shared_ptr<const std::vector<NodeInterval>> intervals,
          store->HiddenSubtreeIntervals(reps[k], &vis_stats[k]));
      hidden_of.push_back(intervals.get());
      hidden.push_back(std::move(intervals));
    }
  }

  BatchJoinResult joined = JoinBatchMatches(pq, matches, width, hidden_of);
  for (size_t k = 0; k < width; ++k) {
    EvalResult& r = *out[k];
    r.fragment_matches = joined.fragment_matches[k];
    if (k == 0) {
      r.operators = std::move(shared_ops);
    } else {
      r.operators.push_back({"scan", ExecStats()});
    }
    if (options.semantics == AccessSemantics::kView) {
      // The class's filter checked each of its roots, as the per-subject
      // evaluator's does.
      vis_stats[k].nodes_scanned += joined.fragment_matches[k];
      r.operators.push_back({"visibility", vis_stats[k]});
    }
    r.operators.push_back({"join", k == 0 ? joined.join : ExecStats()});
    r.answers = std::move(joined.answers[k]);
  }
  return Status::OK();
}

}  // namespace

Result<SubjectBatchResult> EvaluateClassBatch(
    SecureStore* store, const SecureStore::SnapshotPin& pin,
    const PatternTree& pattern, std::span<const SubjectId> subjects,
    const EvalOptions& options, const QueryCaches& caches,
    const ChunkScan& scan) {
  SubjectBatchResult batch;

  // Group by codebook column: classes are exact (every subject-dependent
  // step of evaluation — node checks, page verdicts, hidden intervals —
  // is a function of the column alone).
  std::vector<SubjectId> subject_list(subjects.begin(), subjects.end());
  std::vector<SubjectClass> groups = store->GroupSubjects(subject_list);
  std::unordered_map<SubjectId, size_t> class_index;
  for (size_t k = 0; k < groups.size(); ++k) {
    for (SubjectId s : groups[k].members) class_index.emplace(s, k);
  }
  batch.class_of.reserve(subjects.size());
  for (SubjectId s : subjects) batch.class_of.push_back(class_index.at(s));

  cache::ResultCache* rcache = caches.ResultsEnabled();
  QueryPlanCache* pcache = caches.plans;
  std::string normalized;
  if (rcache != nullptr || pcache != nullptr) {
    normalized = NormalizePattern(pattern);
  }
  SECXML_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> plan,
                          ResolvePlan(pattern, normalized, pcache));
  const PreparedQuery& pq = *plan;
  const size_t nf = pq.query.fragments.size();

  batch.classes.resize(groups.size());

  // Probe the result cache per class (by column fingerprint). Non-blocking:
  // a class whose key is in flight on another thread is evaluated live
  // rather than waited on — a batch must never block holding per-class
  // flight leaderships. Leaderships taken here are abandoned by the guards
  // on every early error return.
  std::vector<cache::ResultKey> keys(groups.size());
  std::deque<FlightGuard> flights;
  std::vector<FlightGuard*> flight_of(groups.size(), nullptr);
  std::vector<size_t> miss;
  miss.reserve(groups.size());
  for (size_t k = 0; k < groups.size(); ++k) {
    if (rcache == nullptr) {
      miss.push_back(k);
      continue;
    }
    keys[k] = MakeResultKey(normalized, groups[k].fingerprint,
                            options.semantics, options.ordered_siblings);
    cache::ResultCache::Probe probe = rcache->Get(keys[k], pin.epoch());
    if (probe.outcome == cache::ResultCache::ProbeOutcome::kHit) {
      ClassEvalResult& cls = batch.classes[k];
      cls.subjects = groups[k].members;
      cls.result = MakeCachedResult(probe.payload, 0);
      // The batch's one pin is attributed once (below), not per hit.
      cls.result.operators.back().stats.epoch_pins = 0;
      cls.result.exec = RollUp(cls.result.operators);
      continue;
    }
    if (probe.outcome == cache::ResultCache::ProbeOutcome::kMissLead) {
      flights.emplace_back(rcache, keys[k]);
      flight_of[k] = &flights.back();
    }
    miss.push_back(k);
  }

  // The ACL dependency footprint is a function of the plan and semantics
  // alone, so one computation covers every class published below.
  uint64_t fp_begin = 0, fp_end = 0;
  bool acl_independent = false;
  if (rcache != nullptr && !miss.empty()) {
    QueryFootprint(store, pq, options.semantics, &fp_begin, &fp_end,
                   &acl_independent);
  }

  // Evaluate the miss classes in chunks of up to chunk_cap: one structural
  // scan and one mask join per chunk. With 512-wide masks almost every
  // batch collapses to a single chunk; the option keeps the chunked path
  // reachable for tests and tuning.
  const size_t chunk_cap =
      options.batch_chunk_classes == 0
          ? kMaxBatchClasses
          : std::min(options.batch_chunk_classes, kMaxBatchClasses);
  for (size_t chunk_begin = 0; chunk_begin < miss.size();
       chunk_begin += chunk_cap) {
    const size_t chunk_end = std::min(miss.size(), chunk_begin + chunk_cap);
    const size_t width = chunk_end - chunk_begin;
    std::vector<SubjectId> reps;
    reps.reserve(width);
    std::vector<EvalResult*> results;
    results.reserve(width);
    size_t chunk_subjects = 0;
    for (size_t j = chunk_begin; j < chunk_end; ++j) {
      ClassEvalResult& cls = batch.classes[miss[j]];
      cls.subjects = groups[miss[j]].members;
      reps.push_back(groups[miss[j]].representative());
      results.push_back(&cls.result);
      chunk_subjects += cls.subjects.size();
    }

    std::vector<std::vector<BatchFragmentMatch>> matches(nf);
    std::vector<OperatorStats> shared_ops;
    SECXML_RETURN_NOT_OK(scan(pq, reps, &matches, &shared_ops));
    SECXML_RETURN_NOT_OK(FinalizeChunk(store, pq, options, reps, matches,
                                       std::move(shared_ops), results));

    ExecStats bc = BatchCounters(chunk_subjects, width);
    // The batch's single snapshot pin is attributed to the very first
    // chunk's batch operator (the rollup then reports 1 per batch).
    if (chunk_begin == 0) bc.epoch_pins = 1;
    results[0]->operators.push_back({"batch", bc});

    for (size_t j = chunk_begin; j < chunk_end; ++j) {
      const size_t k = miss[j];
      EvalResult& r = batch.classes[k].result;
      if (rcache != nullptr) {
        r.exec = RollUp(r.operators);
        cache::ResultCache::Entry entry;
        entry.payload = MakeCachePayload(r);
        entry.epoch = pin.epoch();
        entry.begin = fp_begin;
        entry.end = fp_end;
        entry.acl_independent = acl_independent;
        const bool admitted = flight_of[k] != nullptr
                                  ? flight_of[k]->Publish(std::move(entry))
                                  : rcache->Publish(keys[k], std::move(entry));
        ExecStats cache_stats;
        cache_stats.result_cache_misses = 1;
        if (!admitted) cache_stats.result_cache_invalidations = 1;
        r.operators.push_back({"cache", cache_stats});
      }
      r.exec = RollUp(r.operators);
    }
  }

  // All classes served from cache: the batch's one pin still needs a home
  // for the rollup identity — attribute it to the first class's cache op.
  if (miss.empty() && !batch.classes.empty()) {
    EvalResult& r0 = batch.classes[0].result;
    r0.operators.back().stats.epoch_pins = 1;
    r0.exec = RollUp(r0.operators);
  }

  for (const ClassEvalResult& cls : batch.classes) {
    batch.exec += cls.result.exec;
  }
  return batch;
}

Result<SubjectBatchResult> BatchEvaluator::Evaluate(
    const PatternTree& pattern, std::span<const SubjectId> subjects,
    const EvalOptions& options) {
  if (subjects.empty()) {
    return Status::InvalidArgument("batch evaluation needs subjects");
  }
  // One pin covers the whole batch; the nested QueryEvaluator (kNone path)
  // and every chunk adopt this snapshot, so all classes answer against the
  // same epoch.
  SecureStore::SnapshotPin pin(store_);

  // Without access control every subject sees the whole document: the batch
  // is one equivalence class, evaluated once by the per-subject path
  // (through the caches when attached — the key's class half is {0,0}).
  if (options.semantics == AccessSemantics::kNone) {
    QueryEvaluator eval(store_);
    SECXML_ASSIGN_OR_RETURN(
        EvalResult r,
        EvaluateWithCaches(store_, &eval, pattern, options, caches_));
    r.operators.push_back({"batch", BatchCounters(subjects.size(), 1)});
    r.exec = RollUp(r.operators);
    SubjectBatchResult batch;
    ClassEvalResult cls;
    cls.subjects.assign(subjects.begin(), subjects.end());
    cls.result = std::move(r);
    batch.classes.push_back(std::move(cls));
    batch.class_of.assign(subjects.size(), 0);
    batch.exec = batch.classes[0].result.exec;
    return batch;
  }

  // Each chunk's one structural scan: a multi-subject matcher over the
  // whole node space, tested chunk-wide per node.
  auto scan = [&](const PreparedQuery& pq, const std::vector<SubjectId>& reps,
                  std::vector<std::vector<BatchFragmentMatch>>* matches,
                  std::vector<OperatorStats>* operators) -> Status {
    MultiSubjectMatcher::Options mopts;
    mopts.page_skip = options.page_skip;
    mopts.ordered_siblings = options.ordered_siblings;
    MultiSubjectMatcher matcher(store_, reps, mopts);
    for (size_t f = 0; f < pq.query.fragments.size(); ++f) {
      SECXML_RETURN_NOT_OK(matcher.MatchFragment(
          pq.query.fragments[f], pq.designated[f], &(*matches)[f]));
    }
    operators->push_back({"scan", matcher.exec_stats()});
    return Status::OK();
  };
  return EvaluateClassBatch(store_, pin, pattern, subjects, options, caches_,
                            scan);
}

}  // namespace secxml
