// Online-update differential suite (ctest -L update): after *every* update
// in a scripted mixed sequence, the incrementally maintained state must be
// indistinguishable from a from-scratch rebuild —
//
//  * every subject's cached codebook column (extended at commit by the
//    update's appended codebook entries, DESIGN.md §11) equals
//    Codebook::Column computed fresh from the committed codebook;
//  * GroupSubjects (served from the same column cache) partitions exactly
//    like GroupSubjectsByColumn over the current codebook;
//  * every subject's served hidden intervals (carried over by an ACL patch
//    for another subject, DESIGN.md §11) equal a fresh sweep, and after an
//    ACL patch a non-target subject's probe sweeps nothing;
//  * query answers out of the warm (extended) caches equal the answers
//    after DropVisibilityCaches forces cold recomputation, under both access
//    semantics and through both the serial and the batch evaluator.
//
// Plus the epoch-boundary regressions for the stale-column hazard: a column
// cached for one epoch is never served at another, and a pinned reader
// straddling a commit keeps resolving against its pinned snapshot — the
// column its cursor checks included.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/dol_labeling.h"
#include "core/policy.h"
#include "core/secure_store.h"
#include "exec/multi_cursor.h"
#include "query/batch_evaluator.h"
#include "query/evaluator.h"
#include "storage/paged_file.h"
#include "workload/query_generator.h"
#include "xml/xml_parser.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

struct Fixture {
  Document doc;
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
};

std::unique_ptr<Fixture> MakeFixture(uint64_t seed, uint32_t nodes,
                                     size_t subjects) {
  auto f = std::make_unique<Fixture>();
  XMarkOptions xopts;
  xopts.seed = seed + 101;
  xopts.target_nodes = nodes;
  EXPECT_TRUE(GenerateXMark(xopts, &f->doc).ok());
  NodeId n = static_cast<NodeId>(f->doc.NumNodes());
  Rng rng(seed * 31 + 7);
  IntervalAccessMap map(n, subjects);
  for (SubjectId s = 0; s < subjects; ++s) {
    std::vector<AclSeed> seeds = {{0, rng.Bernoulli(0.5)}};
    for (int i = 0; i < 25; ++i) {
      seeds.push_back(
          {static_cast<NodeId>(rng.Uniform(n)), rng.Bernoulli(0.5)});
    }
    map.SetSubjectIntervals(s, PropagateMostSpecificOverride(f->doc, seeds));
  }
  DolLabeling labeling =
      DolLabeling::BuildFromEvents(n, map.InitialAcl(), map.CollectEvents());
  NokStoreOptions sopts;
  sopts.max_records_per_page = 32;  // many pages: deltas hit page boundaries
  Status st =
      SecureStore::Build(f->doc, labeling, &f->file, sopts, &f->store);
  EXPECT_TRUE(st.ok()) << st;
  return f;
}

// The served column (cache hit when warm, else computed) against a fresh
// Codebook::Column of the committed codebook: the in-place extension at
// commit must reproduce the recomputation bit for bit.
void ExpectColumnFresh(SecureStore* store, SubjectId subject,
                       const char* when) {
  auto served = store->SubjectColumn(subject);
  ASSERT_TRUE(served.ok()) << when << ": " << served.status();
  EXPECT_EQ(*served, store->codebook().Column(subject))
      << when << " subject " << subject;
}

// Every differential the suite owes after one committed update.
void CheckAfterUpdate(Fixture* f, size_t num_subjects,
                      const std::vector<PatternTree>& queries,
                      const char* when) {
  // 1. Served columns (cached+extended or lazily computed) vs fresh ones.
  for (SubjectId s = 0; s < num_subjects; ++s) {
    ExpectColumnFresh(f->store.get(), s, when);
  }

  // 2. Cached column grouping vs a direct recomputation.
  std::vector<SubjectId> all;
  for (SubjectId s = 0; s < num_subjects; ++s) all.push_back(s);
  std::vector<SubjectClass> got = f->store->GroupSubjects(all);
  std::vector<SubjectClass> want =
      GroupSubjectsByColumn(f->store->codebook(), all);
  ASSERT_EQ(got.size(), want.size()) << when;
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].members, want[k].members) << when << " class " << k;
  }

  // 3. Served hidden intervals (carried over or swept at this epoch) vs a
  //    fresh sweep of every subject.
  std::vector<std::vector<NodeInterval>> served(num_subjects);
  for (SubjectId s = 0; s < num_subjects; ++s) {
    auto hidden = f->store->HiddenSubtreeIntervals(s);
    ASSERT_TRUE(hidden.ok()) << when << ": " << hidden.status();
    served[s] = **hidden;
  }
  f->store->DropVisibilityCaches();
  for (SubjectId s = 0; s < num_subjects; ++s) {
    auto fresh = f->store->HiddenSubtreeIntervals(s);
    ASSERT_TRUE(fresh.ok()) << when << ": " << fresh.status();
    EXPECT_EQ(served[s], **fresh) << when << " subject " << s;
  }

  // 4. Answers: warm (cached) vs cold (recomputed), serial vs batch, both
  //    semantics.
  for (AccessSemantics sem :
       {AccessSemantics::kBinding, AccessSemantics::kView}) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      std::vector<std::vector<NodeId>> warm(num_subjects);
      QueryEvaluator eval(f->store.get());
      for (SubjectId s = 0; s < num_subjects; ++s) {
        EvalOptions opts;
        opts.semantics = sem;
        opts.subject = s;
        auto r = eval.Evaluate(queries[qi], opts);
        ASSERT_TRUE(r.ok()) << when << ": " << r.status();
        EXPECT_EQ(r->exec.access_only_fetches, 0u) << when;
        warm[s] = r->answers;
      }

      EvalOptions bopts;
      bopts.semantics = sem;
      BatchEvaluator batch(f->store.get());
      auto br = batch.Evaluate(queries[qi], all, bopts);
      ASSERT_TRUE(br.ok()) << when << ": " << br.status();
      for (SubjectId s = 0; s < num_subjects; ++s) {
        EXPECT_EQ(br->ResultFor(s).answers, warm[s])
            << when << " query " << qi << " subject " << s << " semantics "
            << static_cast<int>(sem) << " (batch vs serial)";
      }

      f->store->DropVisibilityCaches();
      for (SubjectId s = 0; s < num_subjects; ++s) {
        EvalOptions opts;
        opts.semantics = sem;
        opts.subject = s;
        auto r = eval.Evaluate(queries[qi], opts);
        ASSERT_TRUE(r.ok()) << when << ": " << r.status();
        EXPECT_EQ(r->answers, warm[s])
            << when << " query " << qi << " subject " << s << " semantics "
            << static_cast<int>(sem) << " (cold recompute vs extended)";
      }
    }
  }

  // Leave every subject's hidden intervals cached, so the next update
  // exercises what it carries over.
  for (SubjectId s = 0; s < num_subjects; ++s) {
    ASSERT_TRUE(f->store->HiddenSubtreeIntervals(s).ok()) << when;
  }
}

// After an ACL patch for `target`, every other subject's hidden intervals
// carry over to the new epoch: probing them is a cache hit that sweeps
// nothing.
void ExpectCarriedOver(SecureStore* store, size_t num_subjects,
                       SubjectId target, const char* when) {
  for (SubjectId s = 0; s < num_subjects; ++s) {
    if (s == target) continue;
    ExecStats stats;
    auto hidden = store->HiddenSubtreeIntervals(s, &stats);
    ASSERT_TRUE(hidden.ok()) << when << ": " << hidden.status();
    EXPECT_EQ(stats.nodes_scanned, 0u) << when << " subject " << s;
  }
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

class UpdateDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(UpdateDifferentialTest, EveryUpdatePatchesExactly) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  constexpr size_t kBaseSubjects = 5;
  auto f = MakeFixture(seed, 2200, kBaseSubjects);
  size_t num_subjects = kBaseSubjects;
  Rng rng(seed * 131 + 17);

  std::vector<PatternTree> queries;
  for (int i = 0; i < 3; ++i) {
    QueryGenOptions qopts;
    qopts.seed = seed * 900 + static_cast<uint64_t>(i);
    qopts.max_nodes = 2 + i;
    queries.push_back(GenerateTwigQuery(f->doc, qopts));
  }

  // Warm every cache so the ACL updates below exercise the *patch* path
  // (a dropped cache would trivially pass the differential).
  CheckAfterUpdate(f.get(), num_subjects, queries, "baseline");
  for (SubjectId s = 0; s < num_subjects; ++s) {
    ASSERT_TRUE(f->store->SubjectColumn(s).ok());
    ASSERT_TRUE(f->store->HiddenSubtreeIntervals(s).ok());
  }
  (void)f->store->GroupSubjects({0, 1, 2, 3, 4});

  const NodeId n = f->store->num_nodes();

  // 1..3: subtree ACL toggles for assorted subjects.
  for (int i = 0; i < 3; ++i) {
    NodeId root = PickSubtree(f->doc, &rng, 30, 400);
    SubjectId s = static_cast<SubjectId>(rng.Uniform(num_subjects));
    bool grant = rng.Bernoulli(0.5);
    ASSERT_TRUE(f->store->SetSubtreeAccess(root, s, grant).ok());
    ExpectCarriedOver(f->store.get(), num_subjects, s, "subtree-acl");
    CheckAfterUpdate(f.get(), num_subjects, queries, "subtree-acl");
  }

  // 4: a single-node flip (the smallest possible delta).
  ASSERT_TRUE(
      f->store->SetNodeAccess(static_cast<NodeId>(rng.Uniform(n)), 1,
                              rng.Bernoulli(0.5)).ok());
  ExpectCarriedOver(f->store.get(), num_subjects, 1, "node-acl");
  CheckAfterUpdate(f.get(), num_subjects, queries, "node-acl");

  // 5: an explicit range crossing several page boundaries.
  {
    NodeId begin = static_cast<NodeId>(rng.Uniform(n / 2));
    NodeId end = begin + 150 < n ? begin + 150 : n;
    ASSERT_TRUE(f->store->SetRangeAccess(begin, end, 2, true).ok());
    ExpectCarriedOver(f->store.get(), num_subjects, 2, "range-acl");
    CheckAfterUpdate(f.get(), num_subjects, queries, "range-acl");
  }

  // 6..7: subject additions (codebook-append; columns restamped).
  {
    auto added = f->store->AddSubject(rng.Bernoulli(0.5));
    ASSERT_TRUE(added.ok());
    ASSERT_EQ(*added, num_subjects);
    ++num_subjects;
    CheckAfterUpdate(f.get(), num_subjects, queries, "add-subject");
    auto cloned = f->store->AddSubjectLike(0);
    ASSERT_TRUE(cloned.ok());
    ++num_subjects;
    CheckAfterUpdate(f.get(), num_subjects, queries, "add-subject-like");
  }

  // 8: an ACL update for a *new* subject (cached columns must extend by
  // the entries the update interned).
  ASSERT_TRUE(f->store
                  ->SetSubtreeAccess(PickSubtree(f->doc, &rng, 20, 200),
                                     static_cast<SubjectId>(num_subjects - 1),
                                     true)
                  .ok());
  ExpectCarriedOver(f->store.get(), num_subjects,
                    static_cast<SubjectId>(num_subjects - 1),
                    "new-subject-acl");
  CheckAfterUpdate(f.get(), num_subjects, queries, "new-subject-acl");

  // 9: remove the last subject (renumbering: caches drop and recompute).
  ASSERT_TRUE(
      f->store->RemoveSubject(static_cast<SubjectId>(num_subjects - 1)).ok());
  --num_subjects;
  CheckAfterUpdate(f.get(), num_subjects, queries, "remove-subject");

  // 10: structural deletion.
  ASSERT_TRUE(
      f->store->DeleteSubtree(PickSubtree(f->doc, &rng, 10, 80)).ok());
  CheckAfterUpdate(f.get(), num_subjects, queries, "delete-subtree");

  // 11: structural insertion of a labeled fragment.
  {
    Document frag;
    ASSERT_TRUE(
        ParseXml("<patchnote><line>a</line><line>b</line></patchnote>", &frag)
            .ok());
    DenseAccessMap fmap(static_cast<NodeId>(frag.NumNodes()), num_subjects);
    for (SubjectId s = 0; s < num_subjects; ++s) {
      fmap.SetSubtree(frag, s, 0, s % 2 == 0);
    }
    auto pos = f->store->InsertSubtree(0, kInvalidNode, frag,
                                       DolLabeling::Build(fmap));
    ASSERT_TRUE(pos.ok()) << pos.status();
    CheckAfterUpdate(f.get(), num_subjects, queries, "insert-subtree");
  }

  // 12: codebook compaction (renumbering: caches drop and recompute).
  ASSERT_TRUE(f->store->CompactCodebook().ok());
  CheckAfterUpdate(f.get(), num_subjects, queries, "compact");

  // The ACL updates above must have gone through the incremental path at
  // least once (warmed caches + kPatch effect), or this suite tested
  // nothing but recomputation. No commit maintains per-subject views.
  SecureStore::UpdateStats us = f->store->update_stats();
  EXPECT_GT(us.columns_patched, 0u);
  EXPECT_EQ(us.views_patched, 0u);
  EXPECT_EQ(us.epochs_advanced, us.updates_applied);
  EXPECT_EQ(f->store->epochs()->active_pins(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateDifferentialTest,
                         ::testing::Range(0, 8));  // 8 seeds

TEST(UpdateEpochTest, ColumnIsNeverServedAcrossAnEpochBoundary) {
  auto f = MakeFixture(77, 1500, 3);
  auto c1 = f->store->SubjectColumn(0);  // warms the cache at this epoch
  ASSERT_TRUE(c1.ok());
  const size_t codes_before = f->store->codebook().size();
  ASSERT_EQ(c1->size(), codes_before);

  // Deny subject 0 a subtree, then grant subject 1 the same subtree: the
  // combined ACLs are new to the codebook, so the commits append entries
  // and extend the cached column in place. A stale column would be short.
  NodeId root = 1;
  while (f->doc.SubtreeSize(root) < 50) ++root;
  ASSERT_TRUE(f->store->SetSubtreeAccess(root, 0, false).ok());
  ASSERT_TRUE(f->store->SetSubtreeAccess(root, 1, true).ok());
  ASSERT_GT(f->store->codebook().size(), codes_before);

  // The new epoch serves the extended column, equal to a fresh one; the
  // caller's earlier copy is untouched by the in-place extension.
  ExpectColumnFresh(f->store.get(), 0, "post-update");
  EXPECT_EQ(c1->size(), codes_before);
  auto acc = f->store->Accessible(0, root);
  ASSERT_TRUE(acc.ok());
  EXPECT_FALSE(*acc);
}

TEST(UpdateEpochTest, PinnedReaderKeepsItsSnapshotAcrossACommit) {
  auto f = MakeFixture(78, 1500, 3);
  NodeId root = 1;
  while (f->doc.SubtreeSize(root) < 80) ++root;
  const NodeId probe = root + 1;  // inside the toggled subtree
  auto before = f->store->Accessible(0, probe);
  ASSERT_TRUE(before.ok());
  auto column_before = f->store->SubjectColumn(0);
  ASSERT_TRUE(column_before.ok());

  {
    SecureStore::SnapshotPin pin(f->store.get());
    EpochManager::Epoch pinned = pin.epoch();
    MultiSubjectCursor cursor(f->store.get(), {0}, {});
    ASSERT_TRUE(cursor.Attach().ok());

    // A commit lands while this reader is pinned (single-threaded here;
    // the cross-thread version is the concurrency suite's job).
    ASSERT_TRUE(f->store->SetSubtreeAccess(root, 0, !*before).ok());
    EXPECT_GT(f->store->epochs()->current(), pinned);

    // Every read through the pin still resolves against the old snapshot:
    // accessibility, the codebook, a column taken under the pin, and the
    // cursor attached before the commit.
    auto pinned_access = f->store->Accessible(0, probe);
    ASSERT_TRUE(pinned_access.ok());
    EXPECT_EQ(*pinned_access, *before);
    auto pinned_column = f->store->SubjectColumn(0);
    ASSERT_TRUE(pinned_column.ok());
    EXPECT_EQ(*pinned_column, *column_before);
    EXPECT_EQ(pinned_column->size(), f->store->codebook().size());
    NokRecord rec{};
    ClassMask cursor_access;
    auto fetched =
        cursor.FetchCandidate(probe, cursor.FullMask(), &rec, &cursor_access);
    ASSERT_TRUE(fetched.ok()) << fetched.status();
    if (*fetched) {
      EXPECT_EQ(cursor_access.Test(0), *before);
    } else {
      EXPECT_FALSE(*before);  // skipped only on a page dead at the pin
    }
  }

  // Unpinned, the same reads see the committed update.
  auto after = f->store->Accessible(0, probe);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, !*before);
  ExpectColumnFresh(f->store.get(), 0, "after unpin");
  EXPECT_EQ(f->store->epochs()->active_pins(), 0u);
}

}  // namespace
}  // namespace secxml
