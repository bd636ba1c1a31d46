#include "serve/shard_coordinator.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>

#include "common/timer.h"
#include "query/batch_matcher.h"

namespace secxml {

namespace {

/// Concatenates per-window match streams window by window into `out`,
/// moving each match: windows ascend in document order, so concatenation
/// is the merge, and each comparison (counted in `merge`) proves it.
Status MergeWindowStreams(
    std::vector<BatchFragmentMatch>* out,
    const std::vector<std::vector<BatchFragmentMatch>*>& streams,
    ExecStats* merge) {
  size_t total = 0;
  for (const std::vector<BatchFragmentMatch>* stream : streams) {
    total += stream->size();
  }
  out->reserve(out->size() + total);
  bool first = true;
  NodeId last_root = 0;
  for (std::vector<BatchFragmentMatch>* stream : streams) {
    for (BatchFragmentMatch& m : *stream) {
      ++merge->merge_comparisons;
      if (!first && m.root < last_root) {
        return Status::Corruption(
            "per-window match streams out of document order");
      }
      last_root = m.root;
      first = false;
      out->push_back(std::move(m));
    }
    *stream = std::vector<BatchFragmentMatch>();
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
    const PreparedQuery& pq, const std::vector<SubjectId>& reps) {
  WindowScan out;
  Timer timer;
  SecureStore* store = store_->store();
  out.matches.resize(pq.query.fragments.size());

  // The worker adopts the request's pin, so every window reads its epoch.
  SecureStore::SnapshotPin worker_pin(store, pin);
  out.scan.epoch_pins = 1;
  if (!range.empty()) {
    Result<ExecStats> scanned =
        ScanFragments(store, pq, MakeEvalOptions(reps[0]), reps, &out.matches,
                      range.first_node, range.end_node);
    if (scanned.ok()) {
      out.scan += *scanned;
    } else {
      out.status = scanned.status();
    }
  }
  out.micros = timer.ElapsedMicros();
  return out;
}

Status ShardCoordinator::GatherWindows(
    std::vector<WindowScan>* scans,
    std::vector<std::vector<BatchFragmentMatch>>* matches,
    std::vector<OperatorStats>* operators) {
  for (const WindowScan& scan : *scans) SECXML_RETURN_NOT_OK(scan.status);
  ExecStats merge;
  merge.shards_scattered = scans->size();
  std::vector<std::vector<BatchFragmentMatch>*> streams(scans->size());
  for (size_t f = 0; f < matches->size(); ++f) {
    for (size_t w = 0; w < scans->size(); ++w) {
      streams[w] = &(*scans)[w].matches[f];
    }
    SECXML_RETURN_NOT_OK(MergeWindowStreams(&(*matches)[f], streams, &merge));
  }
  for (const WindowScan& scan : *scans) {
    operators->push_back({"scan", scan.scan});
  }
  operators->push_back({"merge", merge});
  return Status::OK();
}

Status ShardCoordinator::ScatterScan(
    const SecureStore::SnapshotPin& pin, const PreparedQuery& pq,
    const std::vector<SubjectId>& reps,
    std::vector<std::vector<BatchFragmentMatch>>* matches,
    std::vector<OperatorStats>* operators) {
  const ShardMap windows = store_->Windows();
  std::vector<WindowScan> scans(windows.num_shards());
  RunTasks(scans.size(), [&](size_t w) {
    scans[w] = ScanWindow(pin, windows.range(w), pq, reps);
  });
  return GatherWindows(&scans, matches, operators);
}

Result<EvalResult> ShardCoordinator::EvaluateCachedPinned(
    const SecureStore::SnapshotPin& pin, const PatternTree& pattern,
    SubjectId subject) {
  // The probe runs at the coordinator under the request's pin; a hit skips
  // the entire scatter.
  SecureStore* store = store_->store();
  const EvalOptions options = MakeEvalOptions(subject);
  auto scan = [&](const PreparedQuery& pq, const std::vector<SubjectId>& reps,
                  std::vector<std::vector<BatchFragmentMatch>>* matches,
                  std::vector<OperatorStats>* operators) {
    return ScatterScan(pin, pq, reps, matches, operators);
  };
  return EvaluateSubjectWithCaches(
      store, pattern, options, options_.caches,
      [&](const PreparedQuery& pq) {
        return EvaluateOneClass(store, pq, options, scan);
      });
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

  // Plans are resolved and subjects checked once per job up front (through
  // the plan cache when attached); a job that fails either fails alone and
  // its scatter never runs.
  std::vector<std::shared_ptr<const PreparedQuery>> plans(jobs.size());
  std::vector<std::string> normalized(jobs.size());
  std::vector<char> prepared(jobs.size(), 0);
  for (size_t j = 0; j < jobs.size(); ++j) {
    if (rcache != nullptr || pcache != nullptr) {
      normalized[j] = NormalizePattern(jobs[j].pattern);
    }
    Result<std::shared_ptr<const PreparedQuery>> plan =
        ResolvePlan(jobs[j].pattern, normalized[j], pcache);
    Status checked = plan.ok() ? CheckSubjects(store, options_.semantics,
                                               std::span<const SubjectId>(
                                                   &jobs[j].subject, 1))
                               : plan.status();
    if (checked.ok()) {
      plans[j] = std::move(*plan);
      prepared[j] = 1;
    } else {
      batch.outcomes[j].status = checked;
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
                             {jobs[j].subject});
  });

  // Gather + join per job on the coordinator thread: each job's one-class
  // chunk finalize reads its already-scattered windows. One window's
  // failure (e.g. an injected kIOError) fails only the jobs whose scatter
  // touched it; everything else completes and aggregates normally.
  for (size_t j = 0; j < jobs.size(); ++j) {
    QueryOutcome& out = batch.outcomes[j];
    if (!prepared[j] || served[j]) continue;
    int64_t scatter_micros = 0;
    for (const WindowScan& scan : scans[j]) {
      scatter_micros = std::max(scatter_micros, scan.micros);
    }
    Timer finalize;
    auto gathered = [&](const PreparedQuery&, const std::vector<SubjectId>&,
                        std::vector<std::vector<BatchFragmentMatch>>* matches,
                        std::vector<OperatorStats>* operators) {
      return GatherWindows(&scans[j], matches, operators);
    };
    Result<EvalResult> evaluated = EvaluateOneClass(
        store, *plans[j], MakeEvalOptions(jobs[j].subject), gathered);
    if (!evaluated.ok()) {
      out.status = evaluated.status();
      out.latency_micros = scatter_micros + finalize.ElapsedMicros();
      continue;
    }
    EvalResult result = std::move(*evaluated);
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
  // class, answered by one scattered unchecked one-class chunk — the same
  // collapse BatchEvaluator performs.
  if (options_.semantics == AccessSemantics::kNone) {
    SECXML_ASSIGN_OR_RETURN(EvalResult r,
                            EvaluateCachedPinned(pin, pattern, 0));
    return SingleClassBatch(std::move(r), subjects);
  }

  // Class routing, cache probes and the mask join run ONCE at the
  // coordinator, under the request's pin; each chunk's one structural scan
  // scatters across the windows.
  auto scan = [&](const PreparedQuery& pq, const std::vector<SubjectId>& reps,
                  std::vector<std::vector<BatchFragmentMatch>>* matches,
                  std::vector<OperatorStats>* operators) {
    return ScatterScan(pin, pq, reps, matches, operators);
  };
  return EvaluateClassBatch(store, pin, pattern, subjects, options,
                            options_.caches, scan);
}

}  // namespace secxml
