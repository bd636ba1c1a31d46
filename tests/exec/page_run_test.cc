// Page-at-a-time scans (src/exec/page_run.h):
//  - decoder truth: the scan cursor's per-node accessibility equals the
//    DolLabeling ground truth at both widths (one class per subject, and
//    every subject in one mask) whatever order the nodes are visited in
//    (ascending, descending, seeded random), across seeds, a
//    visibility-clustered store, and a store whose pages split under ACL
//    updates;
//  - pin discipline: a scan holds at most one pin per cursor, and nothing
//    stays pinned after MatchFragment (one class and several),
//    EvaluatePrepared, BatchEvaluator::Evaluate,
//    ShardCoordinator::EvaluateForSubjects, or a scan that fails midway on
//    an unreadable page;
//  - cost: a ChildWalk over siblings on one page is one pool fetch;
//  - concurrency: four reader threads over a pool whose one shard holds
//    exactly four frames never exhaust it (a fetching cursor has already
//    dropped its own pin).

#include "exec/page_run.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/dol_labeling.h"
#include "core/secure_store.h"
#include "exec/multi_cursor.h"
#include "query/batch_evaluator.h"
#include "query/batch_matcher.h"
#include "query/evaluator.h"
#include "query/xpath_parser.h"
#include "serve/shard_coordinator.h"
#include "serve/sharded_store.h"
#include "storage/fault_file.h"
#include "storage/paged_file.h"
#include "workload/query_generator.h"
#include "workload/synthetic_acl.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

constexpr size_t kNumSubjects = 4;

struct Fixture {
  Document doc;
  DolLabeling labeling;
  MemPagedFile base;
  std::unique_ptr<FaultInjectingPagedFile> file;
  std::unique_ptr<SecureStore> store;
  /// truth[s][n]: whether subject s may access node n.
  std::vector<std::vector<char>> truth;
};

struct FixtureOptions {
  uint64_t seed = 5;
  size_t nodes = 1500;
  double propagation_ratio = 0.03;
  NokStoreOptions nok = [] {
    NokStoreOptions o;
    o.max_records_per_page = 32;
    return o;
  }();
};

void BuildFixture(const FixtureOptions& o, Fixture* f) {
  XMarkOptions xopts;
  xopts.seed = o.seed;
  xopts.target_nodes = o.nodes;
  ASSERT_TRUE(GenerateXMark(xopts, &f->doc).ok());
  SyntheticAclOptions aopts;
  aopts.seed = o.seed + 100;
  aopts.accessibility_ratio = 0.5;
  aopts.propagation_ratio = o.propagation_ratio;
  IntervalAccessMap map = GenerateSyntheticAclMap(f->doc, kNumSubjects, aopts);
  f->labeling = DolLabeling::BuildFromEvents(map.num_nodes(), map.InitialAcl(),
                                             map.CollectEvents());
  f->file = std::make_unique<FaultInjectingPagedFile>(&f->base);
  ASSERT_TRUE(SecureStore::Build(f->doc, f->labeling, f->file.get(), o.nok,
                                 &f->store)
                  .ok());
  f->truth.assign(kNumSubjects, std::vector<char>(f->doc.NumNodes()));
  for (SubjectId s = 0; s < kNumSubjects; ++s) {
    for (NodeId n = 0; n < f->doc.NumNodes(); ++n) {
      f->truth[s][n] = f->labeling.Accessible(s, n) ? 1 : 0;
    }
  }
}

enum class Layout { kBuilt, kClustered, kSplit };

/// Builds the store, then reshapes it: a visibility-clustered VACUUM, or
/// ACL updates on a store with no transition slack, so pages split.
void BuildLayout(uint64_t seed, Layout layout, Fixture* f) {
  FixtureOptions o;
  o.seed = seed;
  if (layout == Layout::kClustered) o.propagation_ratio = 0.005;
  if (layout == Layout::kSplit) {
    o.nodes = 3000;
    o.nok.max_records_per_page = 0;  // full pages: new transitions split
    o.nok.transition_slack = 0;
  }
  BuildFixture(o, f);
  if (::testing::Test::HasFatalFailure()) return;
  if (layout == Layout::kClustered) {
    SecureStore::VacuumOptions vopts;
    vopts.min_run_records = 8;
    vopts.checkpoint_after = false;
    ASSERT_TRUE(f->store->Vacuum(vopts).ok());
  }
  if (layout == Layout::kSplit) {
    const size_t pages_before = f->store->nok()->num_pages();
    Rng rng(seed * 31 + 7);
    const NodeId n = static_cast<NodeId>(f->doc.NumNodes());
    for (int i = 0; i < 120; ++i) {
      NodeId begin = static_cast<NodeId>(rng.Uniform(n - 1));
      NodeId end = std::min<NodeId>(
          n, begin + 1 + static_cast<NodeId>(rng.Uniform(6)));
      SubjectId s = static_cast<SubjectId>(rng.Uniform(kNumSubjects));
      bool accessible = rng.Uniform(2) == 0;
      ASSERT_TRUE(f->store->SetRangeAccess(begin, end, s, accessible).ok());
      for (NodeId m = begin; m < end; ++m) f->truth[s][m] = accessible;
    }
    ASSERT_GT(f->store->nok()->num_pages(), pages_before);
  }
}

std::vector<std::vector<NodeId>> VisitOrders(NodeId n, uint64_t seed) {
  std::vector<NodeId> asc(n);
  for (NodeId i = 0; i < n; ++i) asc[i] = i;
  std::vector<NodeId> desc(asc.rbegin(), asc.rend());
  std::vector<NodeId> shuffled = asc;
  Rng rng(seed);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }
  return {asc, desc, shuffled};
}

class CursorTruthTest
    : public ::testing::TestWithParam<std::tuple<int, Layout>> {};

TEST_P(CursorTruthTest, BothCursorsMatchLabelingInEveryOrder) {
  const uint64_t seed = static_cast<uint64_t>(std::get<0>(GetParam()));
  Fixture f;
  BuildLayout(seed, std::get<1>(GetParam()), &f);
  if (HasFatalFailure()) return;
  SecureStore* store = f.store.get();
  const NodeId n = store->num_nodes();
  ASSERT_EQ(n, f.doc.NumNodes());
  SecureStore::SnapshotPin pin(store);

  for (const std::vector<NodeId>& order : VisitOrders(n, seed)) {
    // Width 1: one subject per cursor, reading the subject's column.
    for (SubjectId s = 0; s < kNumSubjects; ++s) {
      for (bool page_skip : {true, false}) {
        MultiSubjectCursor::Options copts;
        copts.page_skip = page_skip;
        MultiSubjectCursor cursor(store, {s}, copts);
        ASSERT_TRUE(cursor.Attach().ok());
        ScopedScan<MultiSubjectCursor> scan(&cursor);
        for (NodeId u : order) {
          NokRecord rec{};
          ClassMask access;
          auto fetched =
              cursor.FetchCandidate(u, cursor.FullMask(), &rec, &access);
          ASSERT_TRUE(fetched.ok()) << fetched.status();
          if (!*fetched) {
            ASSERT_TRUE(page_skip);
            ASSERT_FALSE(f.truth[s][u]) << "skipped node " << u;
            continue;
          }
          ASSERT_EQ(access.Test(0), f.truth[s][u] != 0)
              << "node " << u << " subject " << s;
          ASSERT_EQ(rec.depth, f.doc.Depth(u));
          ASSERT_EQ(rec.subtree_size, f.doc.SubtreeSize(u));
        }
        EXPECT_LE(store->nok()->buffer_pool()->num_pinned(), 1u);
      }
    }

    // Every subject in one mask, reading the transposed columns.
    std::vector<SubjectId> reps;
    for (SubjectId s = 0; s < kNumSubjects; ++s) reps.push_back(s);
    MultiSubjectCursor batch(store, reps, {});
    ASSERT_TRUE(batch.Attach().ok());
    ScopedScan<MultiSubjectCursor> scan(&batch);
    for (NodeId u : order) {
      NokRecord rec{};
      ClassMask access;
      auto fetched = batch.FetchCandidate(u, batch.FullMask(), &rec, &access);
      ASSERT_TRUE(fetched.ok()) << fetched.status();
      for (SubjectId s = 0; s < kNumSubjects; ++s) {
        bool want = f.truth[s][u] != 0;
        ASSERT_EQ(*fetched && access.Test(s), want)
            << "node " << u << " subject " << s;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLayouts, CursorTruthTest,
    ::testing::Combine(::testing::Values(3, 11, 29),
                       ::testing::Values(Layout::kBuilt, Layout::kClustered,
                                         Layout::kSplit)));

/// Parses `xpath` and prepares it.
PreparedQuery Prepare(const std::string& xpath) {
  PatternTree pattern;
  EXPECT_TRUE(ParseXPath(xpath, &pattern).ok()) << xpath;
  PreparedQuery pq;
  EXPECT_TRUE(PrepareQuery(pattern, &pq).ok()) << xpath;
  return pq;
}

const char* const kQueries[] = {
    "//*", "/site//item[location]/name", "//person[profile]//interest",
    "//open_auction//bidder/increase", "//category/description//text"};

TEST(PageRunPinTest, EveryScanEntryPointReleasesItsPin) {
  Fixture f;
  BuildFixture(FixtureOptions{}, &f);
  SecureStore* store = f.store.get();
  BufferPool* pool = store->nok()->buffer_pool();
  std::vector<SubjectId> subjects;
  for (SubjectId s = 0; s < kNumSubjects; ++s) subjects.push_back(s);

  for (const char* xpath : kQueries) {
    PreparedQuery pq = Prepare(xpath);
    SecureStore::SnapshotPin pin(store);
    // One class and several, per fragment: nothing stays pinned while the
    // matcher (and its cursor) is still alive.
    MultiSubjectMatcher matcher(store, {1}, {});
    MultiSubjectMatcher batch_matcher(store, subjects, {});
    for (size_t fr = 0; fr < pq.query.fragments.size(); ++fr) {
      std::vector<BatchFragmentMatch> out;
      ASSERT_TRUE(
          matcher.MatchFragment(pq.query.fragments[fr], pq.designated[fr], &out)
              .ok());
      EXPECT_EQ(pool->num_pinned(), 0u) << xpath;
      std::vector<BatchFragmentMatch> batch_out;
      ASSERT_TRUE(batch_matcher
                      .MatchFragment(pq.query.fragments[fr],
                                     pq.designated[fr], &batch_out)
                      .ok());
      EXPECT_EQ(pool->num_pinned(), 0u) << xpath;
    }
  }

  QueryEvaluator evaluator(store);
  BatchEvaluator batch(store);
  for (const char* xpath : kQueries) {
    PreparedQuery pq = Prepare(xpath);
    PatternTree pattern;
    ASSERT_TRUE(ParseXPath(xpath, &pattern).ok());
    for (AccessSemantics sem : {AccessSemantics::kNone,
                                AccessSemantics::kBinding,
                                AccessSemantics::kView}) {
      EvalOptions opts;
      opts.semantics = sem;
      opts.subject = 2;
      ASSERT_TRUE(evaluator.EvaluatePrepared(pq, opts).ok());
      EXPECT_EQ(pool->num_pinned(), 0u) << xpath;
      ASSERT_TRUE(batch.Evaluate(pattern, subjects, opts).ok());
      EXPECT_EQ(pool->num_pinned(), 0u) << xpath;
    }
  }
}

TEST(PageRunPinTest, CoordinatorScatterReleasesEveryWindowsPin) {
  Fixture f;
  BuildFixture(FixtureOptions{}, &f);
  ShardedStoreOptions shopts;
  shopts.num_shards = 4;
  shopts.nok.max_records_per_page = 32;
  shopts.attach_wal = false;
  ShardFileSet files(shopts.num_shards);
  std::unique_ptr<ShardedStore> sharded;
  ASSERT_TRUE(ShardedStore::Build(f.doc, f.labeling, shopts, files.provider(),
                                  &sharded)
                  .ok());
  ShardCoordinatorOptions copts;
  copts.num_threads = 4;
  ShardCoordinator coordinator(sharded.get(), copts);
  std::vector<SubjectId> subjects;
  for (SubjectId s = 0; s < kNumSubjects; ++s) subjects.push_back(s);
  for (const char* xpath : kQueries) {
    PatternTree pattern;
    ASSERT_TRUE(ParseXPath(xpath, &pattern).ok());
    ASSERT_TRUE(coordinator.EvaluateForSubjects(pattern, subjects).ok());
    EXPECT_EQ(sharded->store()->nok()->buffer_pool()->num_pinned(), 0u)
        << xpath;
  }
}

TEST(PageRunPinTest, ScanFailingMidwayReleasesItsPin) {
  Fixture f;
  BuildFixture(FixtureOptions{}, &f);
  SecureStore* store = f.store.get();
  NokStore* nok = store->nok();
  ASSERT_TRUE(nok->buffer_pool()->EvictAll().ok());
  const size_t bad = nok->num_pages() / 2;
  f.file->SetPageFault(nok->page_infos()[bad].page_id, /*fail_reads=*/true,
                       /*fail_writes=*/false);

  PreparedQuery pq = Prepare("//*");
  std::vector<SubjectId> subjects;
  for (SubjectId s = 0; s < kNumSubjects; ++s) subjects.push_back(s);
  SecureStore::SnapshotPin pin(store);
  for (bool secure : {false, true}) {
    MultiSubjectMatcher::Options mo;
    mo.secure = secure;
    mo.page_skip = false;  // the bad page must be read, whatever its codes
    MultiSubjectMatcher matcher(store, {0}, mo);
    std::vector<BatchFragmentMatch> out;
    Status st = matcher.MatchFragment(pq.query.fragments[0],
                                      pq.designated[0], &out);
    EXPECT_EQ(st.code(), StatusCode::kIOError) << st;
    EXPECT_EQ(nok->buffer_pool()->num_pinned(), 0u);
  }
  MultiSubjectMatcher::Options bo;
  bo.page_skip = false;
  MultiSubjectMatcher batch_matcher(store, subjects, bo);
  std::vector<BatchFragmentMatch> batch_out;
  Status st = batch_matcher.MatchFragment(pq.query.fragments[0],
                                          pq.designated[0], &batch_out);
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st;
  EXPECT_EQ(nok->buffer_pool()->num_pinned(), 0u);

  QueryEvaluator evaluator(store);
  EvalOptions opts;
  opts.semantics = AccessSemantics::kBinding;
  opts.page_skip = false;
  EXPECT_FALSE(evaluator.EvaluatePrepared(pq, opts).ok());
  EXPECT_EQ(nok->buffer_pool()->num_pinned(), 0u);
}

TEST(PageRunCostTest, ChildWalkOverOnePageIsOneFetch) {
  Fixture f;
  BuildFixture(FixtureOptions{}, &f);
  SecureStore* store = f.store.get();
  NokStore* nok = store->nok();

  // A parent with at least three children, all on one page.
  NodeId parent = kInvalidNode;
  std::vector<NodeId> children;
  for (NodeId p = 0; p < f.doc.NumNodes() && parent == kInvalidNode; ++p) {
    std::vector<NodeId> kids;
    for (NodeId c = f.doc.FirstChild(p); c != kInvalidNode;
         c = f.doc.NextSibling(c)) {
      kids.push_back(c);
    }
    if (kids.size() < 3) continue;
    if (nok->PageOrdinalOf(kids.front()) == nok->PageOrdinalOf(kids.back())) {
      parent = p;
      children = kids;
    }
  }
  ASSERT_NE(parent, kInvalidNode);
  NokRecord prec = *nok->Record(parent);

  for (SubjectId s = 0; s < kNumSubjects; ++s) {
    MultiSubjectCursor::Options copts;
    copts.page_skip = false;
    MultiSubjectCursor cursor(store, {s}, copts);
    ASSERT_TRUE(cursor.Attach().ok());
    ScopedScan<MultiSubjectCursor> scan(&cursor);
    IoStatsSnapshot before = store->io_stats().Snapshot();
    MultiSubjectCursor::ChildWalk walk(&cursor, parent, prec,
                                       cursor.FullMask());
    std::vector<NodeId> got;
    NodeId u = kInvalidNode;
    NokRecord rec{};
    ClassMask access;
    for (;;) {
      auto more = walk.Next(&u, &rec, &access);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      got.push_back(u);
      EXPECT_EQ(access.Test(0), f.truth[s][u] != 0);
    }
    IoStatsSnapshot delta = store->io_stats().Snapshot() - before;
    EXPECT_EQ(got, children);
    EXPECT_EQ(delta.cache_hits + delta.page_reads, 1u) << "subject " << s;
  }
}

TEST(PageRunConcurrencyTest, FourReadersShareAFourFrameShard) {
  constexpr size_t kThreads = 4;
  FixtureOptions o;
  o.nok.buffer_pool_pages = kThreads;
  o.nok.buffer_pool_shards = 1;
  Fixture f;
  BuildFixture(o, &f);
  SecureStore* store = f.store.get();
  ASSERT_EQ(store->nok()->buffer_pool()->num_shards(), 1u);
  ASSERT_EQ(store->nok()->buffer_pool()->capacity(), kThreads);

  std::vector<PatternTree> patterns;
  for (const char* xpath : kQueries) {
    PatternTree p;
    ASSERT_TRUE(ParseXPath(xpath, &p).ok());
    patterns.push_back(p);
  }
  for (int i = 0; i < 12; ++i) {
    QueryGenOptions qopts;
    qopts.seed = 900 + static_cast<uint64_t>(i);
    qopts.max_nodes = 2 + i % 4;
    patterns.push_back(GenerateTwigQuery(f.doc, qopts));
  }
  const AccessSemantics sems[] = {AccessSemantics::kNone,
                                  AccessSemantics::kBinding,
                                  AccessSemantics::kView};

  // Serial answers first (this also fills the hidden-interval cache).
  std::vector<std::vector<NodeId>> want;
  QueryEvaluator serial(store);
  for (const PatternTree& p : patterns) {
    for (AccessSemantics sem : sems) {
      for (SubjectId s = 0; s < kNumSubjects; ++s) {
        EvalOptions opts;
        opts.semantics = sem;
        opts.subject = s;
        auto r = serial.Evaluate(p, opts);
        ASSERT_TRUE(r.ok()) << r.status();
        want.push_back(r->answers);
      }
    }
  }

  std::vector<std::string> errors(kThreads);
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryEvaluator evaluator(store);
      for (int round = 0; round < 3; ++round) {
        size_t k = 0;
        for (const PatternTree& p : patterns) {
          for (AccessSemantics sem : sems) {
            for (SubjectId s = 0; s < kNumSubjects; ++s, ++k) {
              if ((k + t + static_cast<size_t>(round)) % kThreads != 0 &&
                  sem != AccessSemantics::kView) {
                continue;  // spread the work, keep every thread busy
              }
              EvalOptions opts;
              opts.semantics = sem;
              opts.subject = s;
              auto r = evaluator.Evaluate(p, opts);
              if (!r.ok()) {
                if (errors[t].empty()) errors[t] = r.status().ToString();
                continue;
              }
              if (r->answers != want[k]) ++mismatches[t];
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], "") << "thread " << t;
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
  EXPECT_EQ(store->nok()->buffer_pool()->num_pinned(), 0u);
}

}  // namespace
}  // namespace secxml
