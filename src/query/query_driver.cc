#include "query/query_driver.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/timer.h"
#include "query/xpath_parser.h"

namespace secxml {

void AggregateBatchStats(BatchResult* batch) {
  const std::vector<QueryOutcome>& outcomes = batch->outcomes;
  if (outcomes.empty()) return;
  std::vector<int64_t> latencies;
  latencies.reserve(outcomes.size());
  int64_t total = 0;
  for (const QueryOutcome& out : outcomes) {
    if (!out.status.ok()) {
      ++batch->stats.failed;
      if (batch->stats.first_error.ok()) {
        batch->stats.first_error = out.status;
      }
    } else {
      batch->stats.exec += out.result.exec;
    }
    latencies.push_back(out.latency_micros);
    total += out.latency_micros;
  }
  batch->stats.mean_latency_micros =
      static_cast<double>(total) / static_cast<double>(outcomes.size());
  std::sort(latencies.begin(), latencies.end());
  batch->stats.p95_latency_micros =
      latencies[std::min(latencies.size() - 1, latencies.size() * 95 / 100)];
  batch->stats.max_latency_micros = latencies.back();
}

BatchResult QueryDriver::Run(const std::vector<QueryJob>& jobs) {
  BatchResult batch;
  batch.outcomes.resize(jobs.size());
  if (jobs.empty()) return batch;

  IoStatsSnapshot before = store_->io_stats().Snapshot();
  std::atomic<size_t> next{0};

  auto worker = [&]() {
    QueryEvaluator eval(store_);
    EvalOptions eopts;
    eopts.semantics = options_.semantics;
    eopts.page_skip = options_.page_skip;
    eopts.ordered_siblings = options_.ordered_siblings;
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) break;
      eopts.subject = jobs[i].subject;
      Timer timer;
      Result<EvalResult> r = EvaluateWithCaches(store_, &eval, jobs[i].pattern,
                                                eopts, options_.caches);
      QueryOutcome& out = batch.outcomes[i];
      out.latency_micros = timer.ElapsedMicros();
      if (r.ok()) {
        out.result = std::move(*r);
      } else {
        out.status = r.status();
      }
    }
  };

  size_t workers = std::clamp<size_t>(options_.num_threads, 1, jobs.size());
  Timer wall;
  if (workers == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t t = 0; t < workers; ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  batch.stats.wall_micros = wall.ElapsedMicros();
  batch.stats.io = store_->io_stats().Snapshot() - before;
  AggregateBatchStats(&batch);
  return batch;
}

Result<SubjectBatchResult> QueryDriver::EvaluateForSubjects(
    const PatternTree& pattern, std::span<const SubjectId> subjects) {
  BatchEvaluator eval(store_, options_.caches);
  EvalOptions eopts;
  eopts.semantics = options_.semantics;
  eopts.page_skip = options_.page_skip;
  eopts.ordered_siblings = options_.ordered_siblings;
  return eval.Evaluate(pattern, subjects, eopts);
}

Result<std::vector<QueryJob>> QueryDriver::MakeJobs(
    const std::vector<std::pair<SubjectId, std::string>>& queries) {
  std::vector<QueryJob> jobs;
  jobs.reserve(queries.size());
  for (const auto& [subject, xpath] : queries) {
    QueryJob job;
    job.subject = subject;
    SECXML_RETURN_NOT_OK(ParseXPath(xpath, &job.pattern));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace secxml
