// Parallel-vs-serial differential test: the same randomized (subject,
// query) batch evaluated by QueryDriver on a worker pool and by the serial
// QueryEvaluator must produce identical per-query results, across several
// RNG seeds and under all three access semantics. This is the correctness
// contract of the concurrent read path: sharing one SecureStore across
// threads changes throughput, never answers.

#include "query/query_driver.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/dol_labeling.h"
#include "core/secure_store.h"
#include "query/evaluator.h"
#include "storage/paged_file.h"
#include "workload/query_generator.h"
#include "workload/synthetic_acl.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

constexpr size_t kNumSubjects = 4;

struct Fixture {
  Document doc;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
};

void BuildFixture(uint64_t seed, Fixture* f) {
  XMarkOptions xopts;
  xopts.seed = seed + 300;
  xopts.target_nodes = 2500;
  ASSERT_TRUE(GenerateXMark(xopts, &f->doc).ok());
  SyntheticAclOptions aopts;
  aopts.seed = seed + 700;
  aopts.accessibility_ratio = 0.6;
  IntervalAccessMap map =
      GenerateSyntheticAclMap(f->doc, kNumSubjects, aopts);
  DolLabeling labeling = DolLabeling::BuildFromEvents(
      map.num_nodes(), map.InitialAcl(), map.CollectEvents());
  NokStoreOptions sopts;
  sopts.max_records_per_page = 32;
  // Tiny sharded pool: concurrent queries constantly evict each other's
  // pages, exercising the latch protocol rather than an always-warm cache.
  sopts.buffer_pool_pages = 16;
  sopts.buffer_pool_shards = 4;
  ASSERT_TRUE(
      SecureStore::Build(f->doc, labeling, &f->file, sopts, &f->store).ok());
}

std::vector<QueryJob> MakeBatch(const Document& doc, uint64_t seed) {
  std::vector<QueryJob> jobs;
  for (int i = 0; i < 48; ++i) {
    QueryJob job;
    job.subject = static_cast<SubjectId>(i % kNumSubjects);
    QueryGenOptions qopts;
    qopts.seed = seed * 4000 + static_cast<uint64_t>(i);
    qopts.max_nodes = 2 + i % 5;
    job.pattern = GenerateTwigQuery(doc, qopts);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

class ConcurrentEvaluatorTest : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrentEvaluatorTest, ParallelMatchesSerial) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Fixture f;
  BuildFixture(seed, &f);
  std::vector<QueryJob> jobs = MakeBatch(f.doc, seed);

  const AccessSemantics semantics[] = {
      AccessSemantics::kNone, AccessSemantics::kBinding,
      AccessSemantics::kView};
  for (AccessSemantics sem : semantics) {
    // Serial reference: the existing evaluator, one query at a time.
    QueryEvaluator eval(f.store.get());
    std::vector<std::vector<NodeId>> want;
    for (const QueryJob& job : jobs) {
      EvalOptions opts;
      opts.semantics = sem;
      opts.subject = job.subject;
      auto r = eval.Evaluate(job.pattern, opts);
      ASSERT_TRUE(r.ok()) << r.status();
      want.push_back(r->answers);
    }

    QueryDriverOptions dopts;
    dopts.num_threads = 4;
    dopts.semantics = sem;
    QueryDriver driver(f.store.get(), dopts);
    BatchResult batch = driver.Run(jobs);
    ASSERT_EQ(batch.outcomes.size(), jobs.size());
    EXPECT_EQ(batch.stats.failed, 0u);
    for (size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(batch.outcomes[i].status.ok())
          << batch.outcomes[i].status;
      EXPECT_EQ(batch.outcomes[i].result.answers, want[i])
          << "seed " << seed << " query " << i << " semantics "
          << static_cast<int>(sem) << ": "
          << jobs[i].pattern.ToString();
    }

    // The batch-level ExecStats rollup is exactly the sum of the per-query
    // rollups, and the zero-extra-I/O property survives concurrency.
    ExecStats summed;
    for (const QueryOutcome& out : batch.outcomes) {
      if (out.status.ok()) summed += out.result.exec;
    }
    EXPECT_EQ(batch.stats.exec.nodes_scanned, summed.nodes_scanned);
    EXPECT_EQ(batch.stats.exec.codes_checked, summed.codes_checked);
    EXPECT_EQ(batch.stats.exec.checks_elided, summed.checks_elided);
    EXPECT_EQ(batch.stats.exec.pages_skipped, summed.pages_skipped);
    EXPECT_EQ(batch.stats.exec.fetch_waits, summed.fetch_waits);
    EXPECT_EQ(batch.stats.exec.access_only_fetches, 0u);
  }
}

TEST_P(ConcurrentEvaluatorTest, RepeatedRunsAreDeterministic) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Fixture f;
  BuildFixture(seed, &f);
  std::vector<QueryJob> jobs = MakeBatch(f.doc, seed + 1);

  QueryDriverOptions dopts;
  dopts.num_threads = 4;
  dopts.semantics = AccessSemantics::kBinding;
  QueryDriver driver(f.store.get(), dopts);
  BatchResult first = driver.Run(jobs);
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(f.store->nok()->buffer_pool()->EvictAll().ok());
    BatchResult again = driver.Run(jobs);
    for (size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(again.outcomes[i].result.answers,
                first.outcomes[i].result.answers)
          << "round " << round << " query " << i;
    }
  }
}

TEST_P(ConcurrentEvaluatorTest, ReadaheadMatchesDirectPath) {
  // Four workers sharing per-subject cached columns (first users of a
  // subject race to fill the cache) and background readahead feeding the
  // kView visibility sweeps, over a 16-frame, 4-shard pool: each worker
  // pins one page at a time, so only a pinning prefetch could exhaust a
  // shard. Answers must equal the serial, no-readahead reference, and no
  // query may fail.
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Fixture f;
  BuildFixture(seed, &f);
  std::vector<QueryJob> jobs = MakeBatch(f.doc, seed + 2);

  for (AccessSemantics sem :
       {AccessSemantics::kBinding, AccessSemantics::kView}) {
    QueryEvaluator eval(f.store.get());
    std::vector<std::vector<NodeId>> want;
    for (const QueryJob& job : jobs) {
      EvalOptions opts;
      opts.semantics = sem;
      opts.subject = job.subject;
      auto r = eval.Evaluate(job.pattern, opts);
      ASSERT_TRUE(r.ok()) << r.status();
      want.push_back(r->answers);
    }

    // Cold start for the concurrent run: caches dropped, columns refill
    // under contention, sweeps re-run with prefetching.
    f.store->DropVisibilityCaches();
    ASSERT_TRUE(f.store->nok()->buffer_pool()->EvictAll().ok());
    f.store->nok()->SetReadahead(/*window=*/4, /*workers=*/2);
    QueryDriverOptions dopts;
    dopts.num_threads = 4;
    dopts.semantics = sem;
    QueryDriver driver(f.store.get(), dopts);
    BatchResult batch = driver.Run(jobs);
    f.store->nok()->SetReadahead(0, 0);

    ASSERT_EQ(batch.outcomes.size(), jobs.size());
    EXPECT_EQ(batch.stats.failed, 0u);
    for (size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(batch.outcomes[i].status.ok()) << batch.outcomes[i].status;
      EXPECT_EQ(batch.outcomes[i].result.answers, want[i])
          << "seed " << seed << " query " << i << " semantics "
          << static_cast<int>(sem) << ": " << jobs[i].pattern.ToString();
    }
  }
}

TEST(ConcurrentEvaluatorTest, SingleThreadDriverEqualsEvaluator) {
  Fixture f;
  BuildFixture(99, &f);
  std::vector<QueryJob> jobs = MakeBatch(f.doc, 99);

  QueryDriverOptions dopts;
  dopts.num_threads = 1;
  dopts.semantics = AccessSemantics::kBinding;
  QueryDriver driver(f.store.get(), dopts);
  BatchResult batch = driver.Run(jobs);

  QueryEvaluator eval(f.store.get());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EvalOptions opts;
    opts.semantics = AccessSemantics::kBinding;
    opts.subject = jobs[i].subject;
    auto r = eval.Evaluate(jobs[i].pattern, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(batch.outcomes[i].result.answers, r->answers);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentEvaluatorTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace secxml
