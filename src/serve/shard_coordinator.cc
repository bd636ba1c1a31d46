#include "serve/shard_coordinator.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>

#include "common/timer.h"
#include "query/batch_matcher.h"
#include "query/matcher.h"

namespace secxml {

namespace {

/// Batch accounting, identical convention to BatchEvaluator's: shared work
/// lands on the evaluation that performed it, keeping the rollup-sum
/// identity over classes exact.
ExecStats BatchCounters(size_t subjects, size_t classes) {
  ExecStats s;
  s.subjects_batched = subjects;
  s.classes_evaluated = classes;
  s.class_dedup_hits = subjects - classes;
  return s;
}

/// Concatenates per-window match streams window by window into `out`,
/// moving each match: windows ascend in document order, so concatenation
/// is the merge, and each comparison (counted in `merge`) proves it.
template <typename Match>
Status MergeWindowStreams(std::vector<Match>* out,
                          const std::vector<std::vector<Match>*>& streams,
                          ExecStats* merge) {
  size_t total = 0;
  for (const std::vector<Match>* stream : streams) total += stream->size();
  out->reserve(out->size() + total);
  bool first = true;
  NodeId last_root = 0;
  for (std::vector<Match>* stream : streams) {
    for (Match& m : *stream) {
      ++merge->merge_comparisons;
      if (!first && m.root < last_root) {
        return Status::Corruption(
            "per-window match streams out of document order");
      }
      last_root = m.root;
      first = false;
      out->push_back(std::move(m));
    }
    *stream = std::vector<Match>();
  }
  return Status::OK();
}

}  // namespace

EvalOptions ShardCoordinator::MakeEvalOptions(SubjectId subject) const {
  EvalOptions o;
  o.semantics = options_.semantics;
  o.subject = subject;
  o.page_skip = options_.page_skip;
  o.ordered_siblings = options_.ordered_siblings;
  o.batch_chunk_classes = options_.batch_chunk_classes;
  return o;
}

void ShardCoordinator::RunTasks(size_t tasks,
                                const std::function<void(size_t)>& fn) {
  // Tasks are handed out through an atomic cursor, so long and short scans
  // balance across workers.
  const size_t workers = std::clamp<size_t>(scatter_width(), 1, tasks);
  if (workers <= 1) {
    for (size_t t = 0; t < tasks; ++t) fn(t);
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks) break;
      fn(t);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t t = 0; t < workers; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
}

ShardCoordinator::WindowScan ShardCoordinator::ScanWindow(
    const SecureStore::SnapshotPin& pin, const ShardRange& range,
    const PreparedQuery& pq, SubjectId subject) {
  WindowScan out;
  Timer timer;
  SecureStore* store = store_->store();
  const size_t nf = pq.query.fragments.size();
  out.matches.resize(nf);

  // The worker adopts the request's pin, so every window reads its epoch.
  SecureStore::SnapshotPin worker_pin(store, pin);
  out.scan.epoch_pins = 1;
  if (!range.empty()) {
    NokMatcher::Options mo;
    mo.secure = options_.semantics != AccessSemantics::kNone;
    mo.subject = subject;
    mo.page_skip = options_.page_skip;
    mo.ordered_siblings = options_.ordered_siblings;
    mo.candidate_begin = range.first_node;
    mo.candidate_end = range.end_node;
    NokMatcher matcher(store, mo);
    for (size_t f = 0; f < nf; ++f) {
      Status st = matcher.MatchFragment(pq.query.fragments[f],
                                        pq.designated[f], &out.matches[f]);
      if (!st.ok()) {
        out.status = st;
        out.micros = timer.ElapsedMicros();
        return out;
      }
    }
    out.scan += matcher.exec_stats();
  }
  out.micros = timer.ElapsedMicros();
  return out;
}

Status ShardCoordinator::GatherMatches(
    std::vector<WindowScan>* scans,
    std::vector<std::vector<FragmentMatch>>* matches, ExecStats* merge,
    size_t* fragment_matches) {
  merge->shards_scattered += scans->size();
  std::vector<std::vector<FragmentMatch>*> streams(scans->size());
  for (size_t f = 0; f < matches->size(); ++f) {
    for (size_t w = 0; w < scans->size(); ++w) {
      streams[w] = &(*scans)[w].matches[f];
    }
    SECXML_RETURN_NOT_OK(MergeWindowStreams(&(*matches)[f], streams, merge));
    *fragment_matches += (*matches)[f].size();
  }
  return Status::OK();
}

Result<EvalResult> ShardCoordinator::EvaluatePinned(
    const SecureStore::SnapshotPin& pin, const PreparedQuery& pq,
    SubjectId subject) {
  const size_t nf = pq.query.fragments.size();
  const ShardMap windows = store_->Windows();
  const size_t n = windows.num_shards();

  std::vector<WindowScan> scans(n);
  RunTasks(n, [&](size_t w) {
    scans[w] = ScanWindow(pin, windows.range(w), pq, subject);
  });
  for (const WindowScan& scan : scans) {
    SECXML_RETURN_NOT_OK(scan.status);
  }

  EvalResult result;
  std::vector<std::vector<FragmentMatch>> matches(nf);
  ExecStats merge_stats;
  SECXML_RETURN_NOT_OK(GatherMatches(&scans, &matches, &merge_stats,
                                     &result.fragment_matches));

  for (const WindowScan& scan : scans) {
    result.operators.push_back({"scan", scan.scan});
  }
  result.operators.push_back({"merge", merge_stats});

  // Visibility filtering runs ONCE on the merged streams (the verdict is
  // per match root, so filtering after the merge equals filtering each
  // stream).
  if (options_.semantics == AccessSemantics::kView) {
    ExecStats vis_stats;
    SECXML_ASSIGN_OR_RETURN(
        std::shared_ptr<const std::vector<NodeInterval>> hidden,
        store_->store()->HiddenSubtreeIntervals(subject, &vis_stats));
    FilterMatchesVisible(*hidden, &matches, &vis_stats);
    result.operators.push_back({"visibility", vis_stats});
  }

  ExecStats join_stats;
  JoinMatches(pq, matches, &result.answers, &join_stats);
  result.operators.push_back({"join", join_stats});
  result.exec = RollUp(result.operators);
  return result;
}

Result<EvalResult> ShardCoordinator::EvaluateCachedPinned(
    const SecureStore::SnapshotPin& pin, const PatternTree& pattern,
    SubjectId subject) {
  cache::ResultCache* rcache = options_.caches.ResultsEnabled();
  QueryPlanCache* pcache = options_.caches.plans;
  std::string normalized;
  if (rcache != nullptr || pcache != nullptr) {
    normalized = NormalizePattern(pattern);
  }
  SECXML_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> plan,
                          ResolvePlan(pattern, normalized, pcache));
  if (rcache == nullptr) return EvaluatePinned(pin, *plan, subject);

  // The probe runs at the coordinator under the request's pin; a hit skips
  // the entire scatter.
  SecureStore* store = store_->store();
  ColumnFingerprint fp;  // {0,0} when the answer is subject-independent
  if (options_.semantics != AccessSemantics::kNone) {
    fp = store->SubjectColumnFingerprint(subject);
  }
  cache::ResultKey key = MakeResultKey(normalized, fp, options_.semantics,
                                       options_.ordered_siblings);
  cache::ResultCache::Probe probe = rcache->GetOrWait(key, pin.epoch());
  if (probe.outcome == cache::ResultCache::ProbeOutcome::kHit) {
    return MakeCachedResult(probe.payload, probe.waits);
  }
  FlightGuard flight(rcache, key);
  Result<EvalResult> r = EvaluatePinned(pin, *plan, subject);
  if (!r.ok()) return r;  // the guard abandons the flight

  cache::ResultCache::Entry entry;
  entry.payload = MakeCachePayload(*r);
  entry.epoch = pin.epoch();
  QueryFootprint(store, *plan, options_.semantics, &entry.begin, &entry.end,
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

Result<EvalResult> ShardCoordinator::Evaluate(const PatternTree& pattern,
                                              SubjectId subject) {
  SecureStore::SnapshotPin pin(store_->store());
  return EvaluateCachedPinned(pin, pattern, subject);
}

BatchResult ShardCoordinator::Run(const std::vector<QueryJob>& jobs) {
  BatchResult batch;
  batch.outcomes.resize(jobs.size());
  if (jobs.empty()) return batch;

  SecureStore* store = store_->store();
  SecureStore::SnapshotPin pin(store);
  IoStatsSnapshot before = store_->io_snapshot();
  const ShardMap windows = store_->Windows();
  const size_t n = windows.num_shards();

  cache::ResultCache* rcache = options_.caches.ResultsEnabled();
  QueryPlanCache* pcache = options_.caches.plans;

  // Plans are resolved once per job up front (through the plan cache when
  // attached); a job that fails to prepare fails alone and its scatter
  // never runs.
  std::vector<std::shared_ptr<const PreparedQuery>> plans(jobs.size());
  std::vector<std::string> normalized(jobs.size());
  std::vector<char> prepared(jobs.size(), 0);
  for (size_t j = 0; j < jobs.size(); ++j) {
    if (rcache != nullptr || pcache != nullptr) {
      normalized[j] = NormalizePattern(jobs[j].pattern);
    }
    Result<std::shared_ptr<const PreparedQuery>> plan =
        ResolvePlan(jobs[j].pattern, normalized[j], pcache);
    if (plan.ok()) {
      plans[j] = std::move(*plan);
      prepared[j] = 1;
    } else {
      batch.outcomes[j].status = plan.status();
    }
  }

  // Coordinator-level cache probes before ANY scatter: a served job's window
  // tasks never run at all. Non-blocking — a job whose key is in flight on
  // another coordinator scatters normally rather than waiting with work
  // queued behind it.
  std::vector<char> served(jobs.size(), 0);
  std::vector<cache::ResultKey> keys(jobs.size());
  std::deque<FlightGuard> flights;
  std::vector<FlightGuard*> flight_of(jobs.size(), nullptr);
  if (rcache != nullptr) {
    for (size_t j = 0; j < jobs.size(); ++j) {
      if (!prepared[j]) continue;
      Timer probe_timer;
      ColumnFingerprint fp;
      if (options_.semantics != AccessSemantics::kNone) {
        fp = store->SubjectColumnFingerprint(jobs[j].subject);
      }
      keys[j] = MakeResultKey(normalized[j], fp, options_.semantics,
                              options_.ordered_siblings);
      cache::ResultCache::Probe probe = rcache->Get(keys[j], pin.epoch());
      if (probe.outcome == cache::ResultCache::ProbeOutcome::kHit) {
        batch.outcomes[j].result = MakeCachedResult(probe.payload, 0);
        batch.outcomes[j].latency_micros = probe_timer.ElapsedMicros();
        served[j] = 1;
      } else if (probe.outcome ==
                 cache::ResultCache::ProbeOutcome::kMissLead) {
        flights.emplace_back(rcache, keys[j]);
        flight_of[j] = &flights.back();
      }
    }
  }

  // Every (job, window) scan is one pool task, so one job's windows
  // overlap.
  std::vector<std::vector<WindowScan>> scans(jobs.size());
  for (auto& per_job : scans) per_job.resize(n);
  Timer wall;
  RunTasks(jobs.size() * n, [&](size_t t) {
    const size_t j = t / n;
    const size_t w = t % n;
    if (!prepared[j] || served[j]) return;
    scans[j][w] = ScanWindow(pin, windows.range(w), *plans[j],
                             jobs[j].subject);
  });

  // Gather + join per job on the coordinator thread. One window's failure
  // (e.g. an injected kIOError) fails only the jobs whose scatter touched
  // it; everything else completes and aggregates normally.
  for (size_t j = 0; j < jobs.size(); ++j) {
    QueryOutcome& out = batch.outcomes[j];
    if (!prepared[j] || served[j]) continue;
    int64_t scatter_micros = 0;
    Status failed = Status::OK();
    for (const WindowScan& scan : scans[j]) {
      scatter_micros = std::max(scatter_micros, scan.micros);
      if (failed.ok() && !scan.status.ok()) failed = scan.status;
    }
    Timer finalize;
    if (!failed.ok()) {
      out.status = failed;
      out.latency_micros = scatter_micros;
      continue;
    }
    EvalResult result;
    const size_t nf = plans[j]->query.fragments.size();
    std::vector<std::vector<FragmentMatch>> matches(nf);
    ExecStats merge_stats;
    Status gathered = GatherMatches(&scans[j], &matches, &merge_stats,
                                    &result.fragment_matches);
    if (!gathered.ok()) {
      out.status = gathered;
      out.latency_micros = scatter_micros + finalize.ElapsedMicros();
      continue;
    }
    for (const WindowScan& scan : scans[j]) {
      result.operators.push_back({"scan", scan.scan});
    }
    result.operators.push_back({"merge", merge_stats});
    if (options_.semantics == AccessSemantics::kView) {
      ExecStats vis_stats;
      Result<std::shared_ptr<const std::vector<NodeInterval>>> hidden =
          store->HiddenSubtreeIntervals(jobs[j].subject, &vis_stats);
      if (!hidden.ok()) {
        out.status = hidden.status();
        out.latency_micros = scatter_micros + finalize.ElapsedMicros();
        continue;
      }
      FilterMatchesVisible(**hidden, &matches, &vis_stats);
      result.operators.push_back({"visibility", vis_stats});
    }
    ExecStats join_stats;
    JoinMatches(*plans[j], matches, &result.answers, &join_stats);
    result.operators.push_back({"join", join_stats});
    result.exec = RollUp(result.operators);
    if (rcache != nullptr) {
      cache::ResultCache::Entry entry;
      entry.payload = MakeCachePayload(result);
      entry.epoch = pin.epoch();
      QueryFootprint(store, *plans[j], options_.semantics, &entry.begin,
                     &entry.end, &entry.acl_independent);
      const bool admitted = flight_of[j] != nullptr
                                ? flight_of[j]->Publish(std::move(entry))
                                : rcache->Publish(keys[j], std::move(entry));
      ExecStats cache_stats;
      cache_stats.result_cache_misses = 1;
      if (!admitted) cache_stats.result_cache_invalidations = 1;
      result.operators.push_back({"cache", cache_stats});
      result.exec = RollUp(result.operators);
    }
    out.result = std::move(result);
    // Latency is the job's critical path: its slowest window scan plus the
    // coordinator's merge+join (scans of one job run concurrently).
    out.latency_micros = scatter_micros + finalize.ElapsedMicros();
  }

  batch.stats.wall_micros = wall.ElapsedMicros();
  batch.stats.io = store_->io_snapshot() - before;
  AggregateBatchStats(&batch);
  return batch;
}

Result<SubjectBatchResult> ShardCoordinator::EvaluateForSubjects(
    const PatternTree& pattern, std::span<const SubjectId> subjects) {
  if (subjects.empty()) {
    return Status::InvalidArgument("batch evaluation needs subjects");
  }
  SecureStore* store = store_->store();
  SecureStore::SnapshotPin pin(store);
  const EvalOptions options = MakeEvalOptions(0);

  // Without access control every subject sees the whole document: one
  // class, answered by the (scattered) per-subject path — the same collapse
  // BatchEvaluator performs.
  if (options_.semantics == AccessSemantics::kNone) {
    SECXML_ASSIGN_OR_RETURN(EvalResult r,
                            EvaluateCachedPinned(pin, pattern, 0));
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

  // Class routing, cache probes and the mask join run ONCE at the
  // coordinator, under the request's pin; each chunk's one structural scan
  // scatters across the windows.
  auto scan = [&](const PreparedQuery& pq, const std::vector<SubjectId>& reps,
                  std::vector<std::vector<BatchFragmentMatch>>* matches,
                  std::vector<OperatorStats>* operators) -> Status {
    const size_t nf = pq.query.fragments.size();
    const ShardMap windows = store_->Windows();
    const size_t n = windows.num_shards();
    // Each window's multi-subject cursor walks only its candidate window.
    struct BatchWindowScan {
      Status status = Status::OK();
      std::vector<std::vector<BatchFragmentMatch>> matches;
      ExecStats scan;
    };
    std::vector<BatchWindowScan> scans(n);
    RunTasks(n, [&](size_t w) {
      BatchWindowScan& out = scans[w];
      out.matches.resize(nf);
      const ShardRange& range = windows.range(w);
      SecureStore::SnapshotPin worker_pin(store, pin);
      out.scan.epoch_pins = 1;
      if (range.empty()) return;
      MultiSubjectMatcher::Options mo;
      mo.page_skip = options_.page_skip;
      mo.ordered_siblings = options_.ordered_siblings;
      mo.candidate_begin = range.first_node;
      mo.candidate_end = range.end_node;
      MultiSubjectMatcher matcher(store, reps, mo);
      for (size_t f = 0; f < nf; ++f) {
        Status st = matcher.MatchFragment(pq.query.fragments[f],
                                          pq.designated[f], &out.matches[f]);
        if (!st.ok()) {
          out.status = st;
          return;
        }
      }
      out.scan += matcher.exec_stats();
    });
    for (const BatchWindowScan& scan : scans) {
      SECXML_RETURN_NOT_OK(scan.status);
    }

    // Document-order merge of the per-window batch streams (the window
    // scans are not read again, so their matches move).
    ExecStats merge_stats;
    merge_stats.shards_scattered = n;
    std::vector<std::vector<BatchFragmentMatch>*> streams(n);
    for (size_t f = 0; f < nf; ++f) {
      for (size_t w = 0; w < n; ++w) streams[w] = &scans[w].matches[f];
      SECXML_RETURN_NOT_OK(
          MergeWindowStreams(&(*matches)[f], streams, &merge_stats));
    }
    for (const BatchWindowScan& scan : scans) {
      operators->push_back({"scan", scan.scan});
    }
    operators->push_back({"merge", merge_stats});
    return Status::OK();
  };
  return EvaluateClassBatch(store, pin, pattern, subjects, options,
                            options_.caches, scan);
}

}  // namespace secxml
