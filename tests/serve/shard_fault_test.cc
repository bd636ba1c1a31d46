// Per-window fault isolation: I/O faults injected into the pages of one
// candidate window must fail only the queries whose scatter actually read
// them — root-anchored queries with no candidates there sail through with
// answers identical to the single store, the batch surfaces the failure
// through first_error, and clearing the faults restores full service
// (reads never poison the store).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "query/evaluator.h"
#include "query/query_driver.h"
#include "query/xpath_parser.h"
#include "serve/shard_coordinator.h"
#include "serve/sharded_store.h"
#include "shard_test_util.h"
#include "storage/fault_file.h"

namespace secxml {
namespace {

constexpr size_t kWindows = 4;
constexpr size_t kFaultyWindow = 2;

struct FaultFixture {
  Document doc;
  DolLabeling labeling;
  MemPagedFile single_file;
  std::unique_ptr<SecureStore> single;
  MemPagedFile data;
  std::unique_ptr<FaultInjectingPagedFile> faulty;
  std::unique_ptr<ShardedStore> sharded;
};

void BuildFaultFixture(uint64_t seed, FaultFixture* f) {
  ShardFixtureOptions o;
  o.seed = seed;
  // Reuse the shared generator for doc/ACL, then rebuild by hand so the
  // store's data file goes through the fault decorator.
  ShardFixture base;
  BuildShardFixture(o, &base);
  f->doc = std::move(base.doc);
  f->labeling = std::move(base.labeling);

  NokStoreOptions sopts;
  sopts.max_records_per_page = o.max_records_per_page;
  ASSERT_TRUE(SecureStore::Build(f->doc, f->labeling, &f->single_file, sopts,
                                 &f->single)
                  .ok());
  // Fault-free while the store builds; tests arm faults afterwards.
  f->faulty =
      std::make_unique<FaultInjectingPagedFile>(&f->data, FaultOptions{});
  ShardedStoreOptions shopts;
  shopts.num_shards = kWindows;
  shopts.nok = sopts;
  shopts.attach_wal = false;
  auto provider = [f](size_t) -> Result<ShardFiles> {
    ShardFiles files;
    files.data = f->faulty.get();
    return files;
  };
  Status st = ShardedStore::Build(f->doc, f->labeling, shopts, provider,
                                  &f->sharded);
  ASSERT_TRUE(st.ok()) << st;
}

void ArmReadFaults(FaultFixture* f) {
  // Force physical reads, then make every read of window kFaultyWindow's
  // pages fail.
  SecureStore* store = f->sharded->store();
  ASSERT_TRUE(store->nok()->buffer_pool()->EvictAll().ok());
  const ShardRange window = f->sharded->Windows().range(kFaultyWindow);
  ASSERT_FALSE(window.empty());
  const std::vector<NokStore::PageInfo>& infos = store->nok()->page_infos();
  for (size_t p = window.first_page; p < window.end_page; ++p) {
    f->faulty->SetPageFault(infos[p].page_id, /*fail_reads=*/true,
                            /*fail_writes=*/false);
  }
}

void DisarmFaults(FaultFixture* f) { f->faulty->ClearPageFaults(); }

TEST(ShardFaultTest, OneShardsFaultFailsOnlyTouchingJobs) {
  FaultFixture f;
  BuildFaultFixture(61, &f);
  PatternTree rooted, wild;
  ASSERT_TRUE(ParseXPath("/site", &rooted).ok());
  // `//*` makes every node in each window a candidate, so the wild jobs are
  // guaranteed to fetch records from the faulty window (a tag query could
  // have all its postings land in other windows).
  ASSERT_TRUE(ParseXPath("//*", &wild).ok());

  // Interleave jobs that never read the faulty window (the root candidate,
  // node 0, is window 0's) with jobs that must read it.
  std::vector<QueryJob> jobs;
  for (SubjectId s = 0; s < 6; ++s) {
    jobs.push_back({s, rooted});
    jobs.push_back({s, wild});
  }

  ArmReadFaults(&f);
  ShardCoordinatorOptions copts;
  copts.semantics = AccessSemantics::kBinding;
  ShardCoordinator coord(f.sharded.get(), copts);
  BatchResult batch = coord.Run(jobs);

  QueryDriverOptions dopts;
  dopts.semantics = AccessSemantics::kBinding;
  QueryDriver driver(f.single.get(), dopts);

  ASSERT_EQ(batch.outcomes.size(), jobs.size());
  size_t failed = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    const bool is_wild = (i % 2) == 1;
    if (is_wild) {
      EXPECT_FALSE(batch.outcomes[i].status.ok()) << "job " << i;
      EXPECT_EQ(batch.outcomes[i].status.code(), StatusCode::kIOError)
          << batch.outcomes[i].status;
      ++failed;
    } else {
      ASSERT_TRUE(batch.outcomes[i].status.ok())
          << "job " << i << ": " << batch.outcomes[i].status;
      BatchResult want = driver.Run({jobs[i]});
      ASSERT_TRUE(want.outcomes[0].status.ok());
      EXPECT_EQ(batch.outcomes[i].result.answers,
                want.outcomes[0].result.answers)
          << "job " << i;
    }
  }
  EXPECT_EQ(batch.stats.failed, failed);
  ASSERT_GT(failed, 0u);
  EXPECT_EQ(batch.stats.first_error.code(), StatusCode::kIOError);
  EXPECT_GT(f.faulty->stats().injected_reads, 0u);
}

TEST(ShardFaultTest, SingleEvaluateSurfacesTheShardsError) {
  FaultFixture f;
  BuildFaultFixture(62, &f);
  PatternTree wild;
  ASSERT_TRUE(ParseXPath("//*", &wild).ok());
  ArmReadFaults(&f);

  ShardCoordinatorOptions copts;
  copts.semantics = AccessSemantics::kBinding;
  ShardCoordinator coord(f.sharded.get(), copts);
  auto r = coord.Evaluate(wild, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(ShardFaultTest, ServiceRecoversOnceTheFaultClears) {
  FaultFixture f;
  BuildFaultFixture(63, &f);
  std::vector<PatternTree> queries = MakeShardQueries(f.doc, 63, 3);
  ArmReadFaults(&f);

  ShardCoordinatorOptions copts;
  copts.semantics = AccessSemantics::kView;
  ShardCoordinator coord(f.sharded.get(), copts);
  // With an evicted pool, at least one of these queries must have read the
  // faulty window (a view-semantics query sweeps every page for the
  // subject's hidden intervals).
  size_t failures = 0;
  for (const PatternTree& q : queries) {
    if (!coord.Evaluate(q, 0).ok()) ++failures;
  }
  ASSERT_GT(failures, 0u);

  DisarmFaults(&f);
  QueryEvaluator eval(f.single.get());
  for (const PatternTree& q : queries) {
    for (SubjectId s = 0; s < 4; ++s) {
      auto sr = coord.Evaluate(q, s);
      ASSERT_TRUE(sr.ok()) << sr.status();
      EvalOptions eopts;
      eopts.semantics = AccessSemantics::kView;
      eopts.subject = s;
      auto rr = eval.Evaluate(q, eopts);
      ASSERT_TRUE(rr.ok());
      EXPECT_EQ(sr->answers, rr->answers)
          << "post-recovery, subject " << s << ": " << q.ToString();
    }
  }
}

}  // namespace
}  // namespace secxml
