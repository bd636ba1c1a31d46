// Concurrent reader/writer stress (ctest -L concurrency; TSan target): one
// writer streams ACL and structural updates through the store while reader
// threads evaluate queries nonstop. Contracts:
//
//  * Every query's answers equal the oracle of the epoch its snapshot pin
//    captured — never a half-applied update, never a neighbouring epoch's
//    state. The writer toggles a multi-page subtree between two known
//    states, so any torn observation produces an answer set matching
//    neither oracle.
//  * No leaked pins or epochs once everyone joins: active_pins() == 0,
//    pins == unpins, every retired snapshot reclaimed, no buffer-pool pin
//    left behind.
//  * A commit never waits on a reader's page I/O: a cold hidden-interval
//    sweep over a slow device runs outside the cache mutex a commit takes,
//    and its answer is its pinned epoch's.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/dol_labeling.h"
#include "core/policy.h"
#include "core/secure_store.h"
#include "query/evaluator.h"
#include "storage/paged_file.h"
#include "workload/query_generator.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

constexpr size_t kSubjects = 3;
constexpr int kReaders = 4;
constexpr int kWriterUpdates = 60;
constexpr int kReaderIters = 120;

struct StressFixture {
  Document doc;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
  NodeId toggle_root = 0;  // the subtree the writer flips
};

void BuildStressFixture(uint64_t seed, StressFixture* f) {
  XMarkOptions xopts;
  xopts.seed = seed + 41;
  xopts.target_nodes = 2000;
  ASSERT_TRUE(GenerateXMark(xopts, &f->doc).ok());
  NodeId n = static_cast<NodeId>(f->doc.NumNodes());
  DenseAccessMap map(n, kSubjects);
  for (SubjectId s = 0; s < kSubjects; ++s) map.SetSubtree(f->doc, s, 0, true);
  NokStoreOptions sopts;
  sopts.max_records_per_page = 32;
  ASSERT_TRUE(SecureStore::Build(f->doc, DolLabeling::Build(map), &f->file,
                                 sopts, &f->store)
                  .ok());
}

// Deepest ancestor subtree of `answer` spanning at least `min_size` nodes
// (several pages, so a torn toggle would be observable), preferring deep =
// small so the toggle does not swallow the whole document.
NodeId PickToggleRoot(const Document& doc, NodeId answer, NodeId min_size) {
  NodeId best = 0;
  for (NodeId x = 1; x < doc.NumNodes() && x <= answer; ++x) {
    NodeId size = doc.SubtreeSize(x);
    if (answer >= x && answer < x + size && size >= min_size) best = x;
  }
  return best;
}

// A query with answers for subject 0 plus a toggle subtree that intersects
// them — so revoking the subtree provably changes the answer set.
void PickQueryAndToggle(StressFixture* f, uint64_t qseed,
                        PatternTree* query) {
  QueryEvaluator eval(f->store.get());
  for (int attempt = 0; attempt < 16; ++attempt) {
    QueryGenOptions qopts;
    qopts.seed = qseed + static_cast<uint64_t>(attempt) * 97;
    qopts.max_nodes = 3;
    PatternTree q = GenerateTwigQuery(f->doc, qopts);
    EvalOptions opts;
    opts.semantics = AccessSemantics::kBinding;
    opts.subject = 0;
    auto r = eval.Evaluate(q, opts);
    ASSERT_TRUE(r.ok()) << r.status();
    for (NodeId a : r->answers) {
      NodeId root = PickToggleRoot(f->doc, a, 60);
      if (root != 0) {
        f->toggle_root = root;
        *query = std::move(q);
        return;
      }
    }
  }
  FAIL() << "no query/toggle pair found for seed " << qseed;
}

TEST(UpdateConcurrencyTest, ReadersMatchTheirPinnedEpochsOracle) {
  StressFixture f;
  BuildStressFixture(17, &f);
  SecureStore* store = f.store.get();

  PatternTree query;
  PickQueryAndToggle(&f, 1234, &query);
  ASSERT_NE(f.toggle_root, 0u);

  // Precompute the two oracle answer sets per semantics: state A (subtree
  // accessible to subject 0, the initial state) and state B (revoked). The
  // writer only ever toggles between them, and each committed toggle
  // advances the epoch by exactly one — so the oracle for epoch E is a
  // pure function of E's parity: epoch 1+2k is state A, epoch 2+2k state B.
  std::vector<std::vector<NodeId>> oracle_a, oracle_b;  // [semantics]
  {
    QueryEvaluator eval(store);
    for (AccessSemantics sem :
         {AccessSemantics::kBinding, AccessSemantics::kView}) {
      EvalOptions opts;
      opts.semantics = sem;
      opts.subject = 0;
      auto ra = eval.Evaluate(query, opts);
      ASSERT_TRUE(ra.ok());
      oracle_a.push_back(ra->answers);
    }
    ASSERT_TRUE(store->SetSubtreeAccess(f.toggle_root, 0, false).ok());
    for (AccessSemantics sem :
         {AccessSemantics::kBinding, AccessSemantics::kView}) {
      EvalOptions opts;
      opts.semantics = sem;
      opts.subject = 0;
      auto rb = eval.Evaluate(query, opts);
      ASSERT_TRUE(rb.ok());
      oracle_b.push_back(rb->answers);
    }
    // The toggled subtree must actually affect this query, or the oracle
    // check is vacuous; regenerate deterministically if it does not.
    ASSERT_NE(oracle_a[0], oracle_b[0])
        << "toggle subtree does not intersect the query; pick another seed";
    ASSERT_TRUE(store->SetSubtreeAccess(f.toggle_root, 0, true).ok());
  }
  // Two setup toggles happened: current epoch is 3 (= state A parity).
  const EpochManager::Epoch base_epoch = store->epochs()->current();
  ASSERT_EQ(base_epoch, 3u);

  std::atomic<bool> writer_done{false};
  std::atomic<int> mismatches{0};

  std::thread writer([&] {
    bool accessible = true;
    for (int i = 0; i < kWriterUpdates; ++i) {
      accessible = !accessible;
      Status st = store->SetSubtreeAccess(f.toggle_root, 0, accessible);
      ASSERT_TRUE(st.ok()) << st;
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      QueryEvaluator eval(store);
      for (int i = 0; i < kReaderIters; ++i) {
        AccessSemantics sem = (i + t) % 2 == 0 ? AccessSemantics::kBinding
                                               : AccessSemantics::kView;
        size_t si = sem == AccessSemantics::kBinding ? 0 : 1;
        // The outer pin fixes the epoch; the evaluator's inner pin adopts
        // it, so the answers below are this epoch's by construction — the
        // test is that they match the *oracle* for that epoch.
        SecureStore::SnapshotPin pin(store);
        EpochManager::Epoch e = pin.epoch();
        EvalOptions opts;
        opts.semantics = sem;
        opts.subject = 0;
        auto r = eval.Evaluate(query, opts);
        ASSERT_TRUE(r.ok()) << r.status();
        const std::vector<NodeId>& want =
            (e - base_epoch) % 2 == 0 ? oracle_a[si] : oracle_b[si];
        if (r->answers != want) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          ADD_FAILURE() << "reader " << t << " iter " << i << " epoch " << e
                        << " answers do not match its epoch's oracle";
        }
        EXPECT_EQ(r->exec.epoch_pins, 1u);
      }
    });
  }

  writer.join();
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(writer_done.load());
  EXPECT_EQ(store->epochs()->current(),
            base_epoch + static_cast<EpochManager::Epoch>(kWriterUpdates));

  // Zero leaked pins or epochs.
  EXPECT_EQ(store->epochs()->active_pins(), 0u);
  EpochManager::Stats es = store->epochs()->stats();
  EXPECT_EQ(es.pins, es.unpins);
  EXPECT_EQ(es.retired, es.reclaimed);
  EXPECT_EQ(store->nok()->buffer_pool()->num_pinned(), 0u);

  // The final state is exactly state A or B (kWriterUpdates parity), not
  // something in between.
  QueryEvaluator eval(store);
  EvalOptions opts;
  opts.semantics = AccessSemantics::kBinding;
  opts.subject = 0;
  auto final_r = eval.Evaluate(query, opts);
  ASSERT_TRUE(final_r.ok());
  EXPECT_EQ(final_r->answers,
            kWriterUpdates % 2 == 0 ? oracle_a[0] : oracle_b[0]);
}

TEST(UpdateConcurrencyTest, MixedUpdateStormKeepsEveryAnswerConsistent) {
  // A harsher storm: the writer interleaves subtree toggles with subject
  // adds/removes and a compaction (the cache-dropping paths), while readers
  // check a weaker but torn-state-sensitive invariant — the answer set must
  // equal the oracle of *some* toggle state, never a mixture. Subject 0's
  // rights are only ever changed by whole-subtree toggles, so every
  // committed epoch's answer is one of the two oracles.
  StressFixture f;
  BuildStressFixture(23, &f);
  SecureStore* store = f.store.get();

  PatternTree query;
  PickQueryAndToggle(&f, 555, &query);
  ASSERT_NE(f.toggle_root, 0u);

  std::vector<NodeId> oracle_a, oracle_b;
  {
    QueryEvaluator eval(store);
    EvalOptions opts;
    opts.semantics = AccessSemantics::kView;
    opts.subject = 0;
    auto ra = eval.Evaluate(query, opts);
    ASSERT_TRUE(ra.ok());
    oracle_a = ra->answers;
    ASSERT_TRUE(store->SetSubtreeAccess(f.toggle_root, 0, false).ok());
    auto rb = eval.Evaluate(query, opts);
    ASSERT_TRUE(rb.ok());
    oracle_b = rb->answers;
    ASSERT_TRUE(store->SetSubtreeAccess(f.toggle_root, 0, true).ok());
    ASSERT_NE(oracle_a, oracle_b);
  }

  std::thread writer([&] {
    bool accessible = true;
    for (int i = 0; i < 30; ++i) {
      accessible = !accessible;
      ASSERT_TRUE(
          store->SetSubtreeAccess(f.toggle_root, 0, accessible).ok());
      if (i % 5 == 1) {
        auto added = store->AddSubjectLike(0);
        ASSERT_TRUE(added.ok());
        ASSERT_TRUE(store->RemoveSubject(*added).ok());
      }
      if (i == 15) ASSERT_TRUE(store->CompactCodebook().ok());
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      QueryEvaluator eval(store);
      for (int i = 0; i < 60; ++i) {
        EvalOptions opts;
        opts.semantics = AccessSemantics::kView;
        opts.subject = 0;
        auto r = eval.Evaluate(query, opts);
        ASSERT_TRUE(r.ok()) << r.status();
        EXPECT_TRUE(r->answers == oracle_a || r->answers == oracle_b)
            << "iter " << i << ": answer set matches neither toggle state "
            << "(torn observation)";
      }
    });
  }

  writer.join();
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(store->epochs()->active_pins(), 0u);
  EpochManager::Stats es = store->epochs()->stats();
  EXPECT_EQ(es.pins, es.unpins);
  EXPECT_EQ(es.retired, es.reclaimed);
  EXPECT_EQ(store->nok()->buffer_pool()->num_pinned(), 0u);
}

// Hidden intervals straight from the definition: every inaccessible node
// not already under a hidden subtree hides its whole subtree; adjacent
// subtrees merge, as in the store's sweep.
std::vector<NodeInterval> HiddenOracle(const Document& doc,
                                       const DenseAccessMap& map,
                                       SubjectId subject) {
  std::vector<NodeInterval> hidden;
  NodeId blocked_end = 0;
  for (NodeId n = 0; n < doc.NumNodes(); ++n) {
    if (n < blocked_end || map.Accessible(subject, n)) continue;
    blocked_end = doc.SubtreeEnd(n);
    if (!hidden.empty() && hidden.back().end == n) {
      hidden.back().end = blocked_end;
    } else {
      hidden.push_back({n, blocked_end});
    }
  }
  return hidden;
}

TEST(UpdateConcurrencyTest, CommitDoesNotWaitForAColdHiddenSweep) {
  using Clock = std::chrono::steady_clock;
  constexpr auto kReadLatency = std::chrono::milliseconds(3);
  XMarkOptions xopts;
  xopts.seed = 61;
  xopts.target_nodes = 2000;
  Document doc;
  ASSERT_TRUE(GenerateXMark(xopts, &doc).ok());
  const NodeId n = static_cast<NodeId>(doc.NumNodes());
  // Subject 0 is denied a small subtree every 29 nodes, so nearly every
  // page is mixed and the sweep must read it.
  DenseAccessMap map(n, kSubjects, /*default_access=*/true);
  for (NodeId x = 7; x < n; x += 29) {
    if (doc.SubtreeEnd(x) - x <= 8) map.SetSubtree(doc, 0, x, false);
  }
  MemPagedFile base;
  LatencyPagedFile slow(&base, kReadLatency);
  NokStoreOptions sopts;
  sopts.max_records_per_page = 32;
  // A pool latch is held across a physical read; with several shards the
  // sweep holds the commit's shard only now and then.
  sopts.buffer_pool_shards = 8;
  std::unique_ptr<SecureStore> store;
  ASSERT_TRUE(
      SecureStore::Build(doc, DolLabeling::Build(map), &slow, sopts, &store)
          .ok());
  ASSERT_GT(store->nok()->num_pages(), 40u);
  ASSERT_TRUE(store->nok()->buffer_pool()->EvictAll().ok());  // sweep cold
  const std::vector<NodeInterval> before = HiddenOracle(doc, map, 0);
  // The writer revokes an accessible node outside every hidden subtree, so
  // the commit changes subject 0's hidden intervals.
  NodeId victim = 0;
  for (NodeId x = n / 2; x < n && victim == 0; ++x) {
    bool covered = false;
    for (const NodeInterval& iv : before) {
      covered |= iv.begin <= x && x < iv.end;
    }
    if (!covered && map.Accessible(0, x)) victim = x;
  }
  ASSERT_NE(victim, 0u);
  // The commit's one page is resident: it does no device read of its own.
  ASSERT_TRUE(store->Accessible(0, victim).ok());
  map.Set(0, victim, false);
  const std::vector<NodeInterval> after = HiddenOracle(doc, map, 0);
  ASSERT_NE(before, after);

  const auto delay_at_start = slow.total_delay();
  std::atomic<bool> sweeping{false};
  Clock::time_point sweep_end, commit_end;
  std::vector<NodeInterval> swept;
  EpochManager::Epoch pinned = 0;
  std::thread reader([&] {
    SecureStore::SnapshotPin pin(store.get());
    pinned = pin.epoch();
    sweeping.store(true);
    auto hidden = store->HiddenSubtreeIntervals(0);
    sweep_end = Clock::now();
    ASSERT_TRUE(hidden.ok()) << hidden.status();
    swept = **hidden;
  });
  // Commit once the sweep is a few page reads in.
  while (!sweeping.load() ||
         slow.total_delay() - delay_at_start < 4 * kReadLatency) {
    std::this_thread::yield();
  }
  Status st = store->SetNodeAccess(victim, 0, false);
  commit_end = Clock::now();
  reader.join();
  ASSERT_TRUE(st.ok()) << st;

  EXPECT_LT(commit_end, sweep_end)
      << "the commit waited for the reader's sweep";
  EXPECT_EQ(swept, before) << "the sweep must answer for its pinned epoch";
  EXPECT_GT(store->epochs()->current(), pinned);
  // The sweep finished after the commit moved the cache on, so it must not
  // have been kept: the new epoch sees the revoke.
  auto now_hidden = store->HiddenSubtreeIntervals(0);
  ASSERT_TRUE(now_hidden.ok());
  EXPECT_EQ(**now_hidden, after);
  EXPECT_EQ(store->epochs()->active_pins(), 0u);
}

}  // namespace
}  // namespace secxml
