// Cross-request cache differential suite (ctest -L cache): with a
// ResultCache + PlanCache attached, every served answer — first probe,
// guaranteed-hit second probe, driver batch, coordinator scatter — must be
// byte-identical to a live uncached evaluation of the same (subject, query,
// snapshot), across an update storm touching every invalidation class (ACL
// range/subtree patches, subject additions, structural insert/delete,
// codebook compaction, vacuum). Zero stale serves, ever; and the cache must
// actually serve hits along the way or the suite tested nothing. The
// threaded storm test runs the same machinery under concurrent updates for
// the TSan leg (ctest -L "concurrency|cache").

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "common/rng.h"
#include "core/dol_labeling.h"
#include "core/policy.h"
#include "core/secure_store.h"
#include "query/batch_evaluator.h"
#include "query/evaluator.h"
#include "query/query_cache.h"
#include "query/query_driver.h"
#include "query/xpath_parser.h"
#include "serve/shard_coordinator.h"
#include "storage/paged_file.h"
#include "workload/query_generator.h"
#include "workload/synthetic_acl.h"
#include "xml/xml_parser.h"
#include "xml/xmark_generator.h"

#include "../serve/shard_test_util.h"

namespace secxml {
namespace {

// The CI differential leg re-runs this whole suite with
// SECXML_DISABLE_RESULT_CACHE=1: answers must stay byte-identical (those
// checks are unconditional below), but hit-count assertions only make sense
// when the cache is actually serving.
const bool kCacheLive = !ResultCacheDisabled();

struct Fixture {
  Document doc;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
};

void BuildFixture(uint64_t seed, uint32_t nodes, size_t subjects,
                  size_t profiles, Fixture* f) {
  XMarkOptions xopts;
  xopts.seed = seed + 500;
  xopts.target_nodes = nodes;
  ASSERT_TRUE(GenerateXMark(xopts, &f->doc).ok());
  IntervalAccessMap map(static_cast<NodeId>(f->doc.NumNodes()), subjects);
  for (SubjectId s = 0; s < subjects; ++s) {
    SyntheticAclOptions aopts;
    aopts.seed = seed * 100 + s % profiles;
    aopts.accessibility_ratio = 0.6;
    map.SetSubjectIntervals(s, GenerateSyntheticAcl(f->doc, aopts));
  }
  DolLabeling labeling = DolLabeling::BuildFromEvents(
      map.num_nodes(), map.InitialAcl(), map.CollectEvents());
  NokStoreOptions sopts;
  sopts.max_records_per_page = 32;
  ASSERT_TRUE(
      SecureStore::Build(f->doc, labeling, &f->file, sopts, &f->store).ok());
}

/// Shared caches wired to one store's commit stream.
struct CacheRig {
  cache::ResultCache results;
  QueryPlanCache plans;
  QueryCaches caches;
  explicit CacheRig(SecureStore* store) {
    caches.results = &results;
    caches.plans = &plans;
    AttachResultCacheInvalidation(store, &results);
  }
};

std::vector<PatternTree> MakeQueries(const Document& doc, uint64_t seed) {
  std::vector<PatternTree> queries;
  for (int i = 0; i < 2; ++i) {
    QueryGenOptions qopts;
    qopts.seed = seed * 7000 + static_cast<uint64_t>(i);
    qopts.max_nodes = 2 + i;
    queries.push_back(GenerateTwigQuery(doc, qopts));
  }
  PatternTree fixed;
  EXPECT_TRUE(ParseXPath("//item/name", &fixed).ok());
  queries.push_back(fixed);
  return queries;
}

NodeId PickSubtree(const Document& doc, Rng* rng, NodeId min_size,
                   NodeId max_size) {
  for (int tries = 0; tries < 200; ++tries) {
    NodeId n = static_cast<NodeId>(
        rng->Uniform(static_cast<uint64_t>(doc.NumNodes() - 1)) + 1);
    if (doc.SubtreeSize(n) >= min_size && doc.SubtreeSize(n) <= max_size) {
      return n;
    }
  }
  return 1;
}

/// The differential the suite owes after every committed update: for each
/// semantics, query, and subject — a cached probe, a second probe (which
/// must be a hit: nothing invalidated it in between), and an uncached live
/// evaluation all agree byte for byte.
void CheckRound(Fixture* f, CacheRig* rig, size_t num_subjects,
                const std::vector<PatternTree>& queries, const char* when) {
  QueryEvaluator cached_eval(f->store.get());
  QueryEvaluator live_eval(f->store.get());
  for (AccessSemantics sem :
       {AccessSemantics::kBinding, AccessSemantics::kView}) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      for (SubjectId s = 0; s < num_subjects; ++s) {
        EvalOptions opts;
        opts.semantics = sem;
        opts.subject = s;
        auto cached = EvaluateWithCaches(f->store.get(), &cached_eval,
                                         queries[qi], opts, rig->caches);
        ASSERT_TRUE(cached.ok()) << when << ": " << cached.status();
        auto served = EvaluateWithCaches(f->store.get(), &cached_eval,
                                         queries[qi], opts, rig->caches);
        ASSERT_TRUE(served.ok()) << when << ": " << served.status();
        auto live = live_eval.Evaluate(queries[qi], opts);
        ASSERT_TRUE(live.ok()) << when << ": " << live.status();

        EXPECT_EQ(cached->answers, live->answers)
            << when << " query " << qi << " subject " << s << " semantics "
            << static_cast<int>(sem) << " (first probe vs live)";
        EXPECT_EQ(served->answers, live->answers)
            << when << " query " << qi << " subject " << s << " semantics "
            << static_cast<int>(sem) << " (served hit vs live)";
        EXPECT_EQ(served->fragment_matches, live->fragment_matches) << when;
        // Single-threaded round: nothing raced the publish, so the second
        // probe is a genuine hit — the differential above really did check
        // a cache-served answer, not two live evaluations.
        if (kCacheLive) {
          EXPECT_EQ(served->exec.result_cache_hits, 1u) << when;
        }
        EXPECT_EQ(served->exec.access_only_fetches, 0u) << when;
      }
    }
  }
}

class CacheDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(CacheDifferentialTest, UpdateStormNeverServesStale) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  constexpr size_t kBaseSubjects = 4, kProfiles = 3;
  Fixture f;
  BuildFixture(seed, 1400, kBaseSubjects, kProfiles, &f);
  size_t num_subjects = kBaseSubjects;
  CacheRig rig(f.store.get());
  Rng rng(seed * 97 + 3);
  std::vector<PatternTree> queries = MakeQueries(f.doc, seed);
  const NodeId n = f.store->num_nodes();

  CheckRound(&f, &rig, num_subjects, queries, "baseline");

  // 1..2: ACL range patches (range-scoped invalidation).
  for (int i = 0; i < 2; ++i) {
    NodeId begin = static_cast<NodeId>(rng.Uniform(n - 1));
    NodeId end = std::min<NodeId>(n, begin + 1 +
                                         static_cast<NodeId>(rng.Uniform(96)));
    SubjectId s = static_cast<SubjectId>(rng.Uniform(num_subjects));
    ASSERT_TRUE(f.store->SetRangeAccess(begin, end, s, i % 2 == 0).ok());
    CheckRound(&f, &rig, num_subjects, queries, "range-acl");
  }

  // 3: a subtree toggle (the paper's natural policy delta).
  ASSERT_TRUE(f.store
                  ->SetSubtreeAccess(PickSubtree(f.doc, &rng, 20, 300),
                                     static_cast<SubjectId>(
                                         rng.Uniform(num_subjects)),
                                     rng.Bernoulli(0.5))
                  .ok());
  CheckRound(&f, &rig, num_subjects, queries, "subtree-acl");

  // 4: subject addition (no-op for cached answers of existing classes).
  {
    auto added = f.store->AddSubjectLike(0);
    ASSERT_TRUE(added.ok());
    ++num_subjects;
    CheckRound(&f, &rig, num_subjects, queries, "add-subject-like");
  }

  // 5: structural deletion (full flush).
  ASSERT_TRUE(f.store->DeleteSubtree(PickSubtree(f.doc, &rng, 5, 60)).ok());
  CheckRound(&f, &rig, num_subjects, queries, "delete-subtree");

  // 6: structural insertion of a labeled fragment (full flush).
  {
    Document frag;
    ASSERT_TRUE(
        ParseXml("<cachenote><line>a</line><line>b</line></cachenote>", &frag)
            .ok());
    DenseAccessMap fmap(static_cast<NodeId>(frag.NumNodes()), num_subjects);
    for (SubjectId s = 0; s < num_subjects; ++s) {
      fmap.SetSubtree(frag, s, 0, s % 2 == 0);
    }
    auto pos = f.store->InsertSubtree(0, kInvalidNode, frag,
                                      DolLabeling::Build(fmap));
    ASSERT_TRUE(pos.ok()) << pos.status();
    CheckRound(&f, &rig, num_subjects, queries, "insert-subtree");
  }

  // 7: codebook compaction (renumbering — fingerprints change, old keys go
  // unreachable instead of aliasing).
  ASSERT_TRUE(f.store->CompactCodebook().ok());
  CheckRound(&f, &rig, num_subjects, queries, "compact");

  // 8: vacuum (page re-cut; shape change flushes).
  {
    SecureStore::VacuumOptions vopts;
    ASSERT_TRUE(f.store->Vacuum(vopts).ok());
    CheckRound(&f, &rig, num_subjects, queries, "vacuum");
  }

  // The storm must have exercised both sides of the machinery.
  if (kCacheLive) {
    cache::ResultCache::Stats s = rig.results.stats();
    EXPECT_GT(s.hits, 0u);
    EXPECT_GT(s.invalidated + s.flushes, 0u);
  }
  EXPECT_EQ(f.store->epochs()->active_pins(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheDifferentialTest,
                         ::testing::Range(0, 8));  // 8 seeds

TEST(CachedDriverTest, RunAndBatchMatchUncachedAcrossUpdates) {
  Fixture f;
  BuildFixture(21, 1500, /*subjects=*/6, /*profiles=*/3, &f);
  CacheRig rig(f.store.get());
  std::vector<PatternTree> queries = MakeQueries(f.doc, 21);
  std::vector<SubjectId> subjects = {0, 1, 2, 3, 4, 5};

  QueryDriverOptions cached_opts;
  cached_opts.num_threads = 3;
  cached_opts.semantics = AccessSemantics::kBinding;
  cached_opts.caches = rig.caches;
  QueryDriver cached_driver(f.store.get(), cached_opts);

  QueryDriverOptions plain_opts = cached_opts;
  plain_opts.caches = QueryCaches{};
  QueryDriver plain_driver(f.store.get(), plain_opts);

  std::vector<QueryJob> jobs;
  for (const PatternTree& q : queries) {
    for (SubjectId s : subjects) jobs.push_back({s, q});
  }

  auto check_all_paths = [&](const char* when) {
    // Per-job driver path (threaded, single-flight inside one run).
    BatchResult cold = cached_driver.Run(jobs);
    BatchResult warm = cached_driver.Run(jobs);
    BatchResult live = plain_driver.Run(jobs);
    ASSERT_EQ(cold.stats.failed, 0u) << when << ": " << cold.stats.first_error;
    ASSERT_EQ(warm.stats.failed, 0u) << when;
    ASSERT_EQ(live.stats.failed, 0u) << when;
    for (size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_EQ(cold.outcomes[j].result.answers,
                live.outcomes[j].result.answers)
          << when << " job " << j << " (cold vs uncached)";
      EXPECT_EQ(warm.outcomes[j].result.answers,
                live.outcomes[j].result.answers)
          << when << " job " << j << " (warm vs uncached)";
    }
    // Nothing invalidated between the two cached runs: every job hits.
    if (kCacheLive) {
      EXPECT_EQ(warm.stats.exec.result_cache_hits, jobs.size()) << when;
    }
    EXPECT_EQ(warm.stats.exec.access_only_fetches, 0u) << when;

    // Batch (multi-subject) path: classes probe the same keys.
    BatchEvaluator plain_batch(f.store.get());
    for (const PatternTree& q : queries) {
      auto cb = cached_driver.EvaluateForSubjects(q, subjects);
      ASSERT_TRUE(cb.ok()) << when << ": " << cb.status();
      EvalOptions bopts;
      bopts.semantics = AccessSemantics::kBinding;
      auto lb = plain_batch.Evaluate(q, subjects, bopts);
      ASSERT_TRUE(lb.ok()) << when << ": " << lb.status();
      for (size_t i = 0; i < subjects.size(); ++i) {
        EXPECT_EQ(cb->ResultFor(i).answers, lb->ResultFor(i).answers)
            << when << " subject " << subjects[i] << ": " << q.ToString();
      }
      // The rollup-sum identity holds with cache operators in the mix.
      ExecStats summed;
      for (const ClassEvalResult& cls : cb->classes) {
        summed += cls.result.exec;
      }
      EXPECT_EQ(cb->exec.result_cache_hits, summed.result_cache_hits) << when;
      EXPECT_EQ(cb->exec.result_cache_misses, summed.result_cache_misses)
          << when;
      EXPECT_EQ(cb->exec.epoch_pins, summed.epoch_pins) << when;
    }
  };

  check_all_paths("initial");
  ASSERT_TRUE(f.store->SetSubtreeAccess(40, 2, false).ok());
  check_all_paths("after-acl");
  ASSERT_TRUE(f.store->CompactCodebook().ok());
  check_all_paths("after-compact");
  if (kCacheLive) {
    EXPECT_GT(rig.results.stats().hits, 0u);
  }
}

TEST(CachedCoordinatorTest, ScatterMatchesUncachedAcrossUpdates) {
  ShardFixtureOptions o;
  o.seed = 9;
  o.num_subjects = 6;
  o.num_profiles = 3;
  ShardFixture f;
  BuildShardFixture(o, &f);

  // Invalidation rides the one store's commit stream.
  SecureStore* store = f.sharded->store();
  cache::ResultCache results;
  QueryPlanCache plans;
  AttachResultCacheInvalidation(store, &results);

  ShardCoordinatorOptions cached_opts;
  cached_opts.semantics = AccessSemantics::kView;
  cached_opts.caches.results = &results;
  cached_opts.caches.plans = &plans;
  ShardCoordinator cached(f.sharded.get(), cached_opts);
  ShardCoordinatorOptions plain_opts;
  plain_opts.semantics = AccessSemantics::kView;
  ShardCoordinator plain(f.sharded.get(), plain_opts);

  std::vector<PatternTree> queries = MakeShardQueries(f.doc, 9, 3);
  std::vector<QueryJob> jobs;
  for (const PatternTree& q : queries) {
    for (SubjectId s = 0; s < o.num_subjects; ++s) jobs.push_back({s, q});
  }

  auto check = [&](const char* when) {
    for (const PatternTree& q : queries) {
      for (SubjectId s = 0; s < o.num_subjects; ++s) {
        auto c1 = cached.Evaluate(q, s);
        auto c2 = cached.Evaluate(q, s);
        auto lv = plain.Evaluate(q, s);
        ASSERT_TRUE(c1.ok() && c2.ok() && lv.ok()) << when;
        EXPECT_EQ(c1->answers, lv->answers) << when << " subject " << s;
        EXPECT_EQ(c2->answers, lv->answers) << when << " subject " << s;
        if (kCacheLive) {
          EXPECT_EQ(c2->exec.result_cache_hits, 1u) << when;
        }
      }
    }
    // The pre-scatter batch probe serves warm jobs without any scatter.
    BatchResult warm = cached.Run(jobs);
    BatchResult live = plain.Run(jobs);
    ASSERT_EQ(warm.stats.failed, 0u) << when;
    ASSERT_EQ(live.stats.failed, 0u) << when;
    for (size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_EQ(warm.outcomes[j].result.answers,
                live.outcomes[j].result.answers)
          << when << " job " << j;
    }
    if (kCacheLive) {
      EXPECT_EQ(warm.stats.exec.result_cache_hits, jobs.size()) << when;
    }
  };

  check("initial");
  // The first revoke may append codebook entries; then every column
  // fingerprint turns over and the old keys become unreachable without
  // anything being erased. Undoing it and revoking again remaps only onto
  // entries that now exist, so the repeat keeps every fingerprint and must
  // erase subject 1's overlapping entries by class.
  ASSERT_TRUE(store->SetSubtreeAccess(30, 1, false).ok());
  check("after-acl");
  ASSERT_TRUE(store->SetSubtreeAccess(30, 1, true).ok());
  check("after-undo");
  const size_t entries_before = store->codebook().size();
  const uint64_t invalidated_before = results.stats().invalidated;
  ASSERT_TRUE(store->SetSubtreeAccess(30, 1, false).ok());
  ASSERT_EQ(store->codebook().size(), entries_before)
      << "the repeated revoke must append no codebook entry";
  if (kCacheLive) {
    EXPECT_GT(results.stats().invalidated, invalidated_before);
  }
  check("after-repeat");
  ASSERT_TRUE(store->AddSubjectLike(2).ok());
  check("after-subject");
  if (kCacheLive) {
    EXPECT_GT(results.stats().hits, 0u);
  }
}

// Concurrent storm for the sanitizer leg: one updater commits ACL patches
// while reader threads stream cached evaluations through the shared caches.
// Every read must succeed; after the storm the caches must still serve
// exactly the live answers (no torn entries, no leaked flights or pins).
TEST(CacheConcurrencyTest, ReadersAndUpdaterShareTheCaches) {
  Fixture f;
  BuildFixture(33, 1200, /*subjects=*/4, /*profiles=*/2, &f);
  CacheRig rig(f.store.get());
  std::vector<PatternTree> queries = MakeQueries(f.doc, 33);
  const NodeId n = f.store->num_nodes();

  std::atomic<bool> failed{false};
  std::thread updater([&] {
    Rng rng(4242);
    for (int i = 0; i < 40 && !failed.load(); ++i) {
      NodeId begin = static_cast<NodeId>(rng.Uniform(n - 1));
      NodeId end = std::min<NodeId>(
          n, begin + 1 + static_cast<NodeId>(rng.Uniform(64)));
      SubjectId s = static_cast<SubjectId>(rng.Uniform(4));
      if (!f.store->SetRangeAccess(begin, end, s, i % 2 == 0).ok()) {
        failed.store(true);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      QueryEvaluator eval(f.store.get());
      Rng rng(100 + t);
      for (int i = 0; i < 80 && !failed.load(); ++i) {
        EvalOptions opts;
        opts.semantics =
            i % 2 == 0 ? AccessSemantics::kBinding : AccessSemantics::kView;
        opts.subject = static_cast<SubjectId>(rng.Uniform(4));
        auto r = EvaluateWithCaches(f.store.get(), &eval,
                                    queries[i % queries.size()], opts,
                                    rig.caches);
        if (!r.ok()) failed.store(true);
      }
    });
  }
  updater.join();
  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed.load());

  // Quiesced: cached answers equal live ones for every key we can probe.
  CheckRound(&f, &rig, 4, queries, "post-storm");
  EXPECT_EQ(f.store->epochs()->active_pins(), 0u);
}

}  // namespace
}  // namespace secxml
