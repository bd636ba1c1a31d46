// ShardedStore update tests: updates applied through store() must keep the
// coordinator's scatter-gather answers equal to a single store receiving the
// same update sequence, and the per-request candidate windows must keep
// tiling [0, num_nodes) as structural updates and vacuum move page
// boundaries.

#include "serve/sharded_store.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/accessibility_map.h"
#include "query/evaluator.h"
#include "serve/shard_coordinator.h"
#include "shard_test_util.h"
#include "xml/xml_parser.h"

namespace secxml {
namespace {

// Differential check after each update: the 4-window scatter answers equal
// the single store's for every subject and query.
void CheckMirrors(ShardFixture* f, const std::vector<PatternTree>& queries,
                  size_t num_subjects, const char* what) {
  ShardCoordinatorOptions copts;
  copts.semantics = AccessSemantics::kView;
  ShardCoordinator coord(f->sharded.get(), copts);
  QueryEvaluator eval(f->single.get());
  for (const PatternTree& q : queries) {
    for (SubjectId s = 0; s < num_subjects; ++s) {
      auto sr = coord.Evaluate(q, s);
      ASSERT_TRUE(sr.ok()) << what << ": " << sr.status();
      EvalOptions eopts;
      eopts.semantics = AccessSemantics::kView;
      eopts.subject = s;
      auto rr = eval.Evaluate(q, eopts);
      ASSERT_TRUE(rr.ok()) << what;
      EXPECT_EQ(sr->answers, rr->answers)
          << what << " subject " << s << ": " << q.ToString();
    }
  }
}

// The windows of the current snapshot tile [0, num_nodes) in ascending,
// contiguous ranges.
void ExpectWindowsTile(ShardedStore* sharded, const char* what) {
  const ShardMap windows = sharded->Windows();
  ASSERT_EQ(windows.num_shards(), sharded->num_shards()) << what;
  uint32_t expect = 0;
  for (size_t w = 0; w < windows.num_shards(); ++w) {
    EXPECT_EQ(windows.range(w).first_node, expect) << what << " window " << w;
    expect = windows.range(w).end_node;
  }
  EXPECT_EQ(expect, sharded->store()->num_nodes()) << what;
}

Document MakeFragment() {
  Document frag;
  EXPECT_TRUE(
      ParseXml("<patchnote><line>a</line><line>b</line></patchnote>", &frag)
          .ok());
  return frag;
}

TEST(ShardedStoreTest, UpdatesReplicateAcrossShards) {
  ShardFixtureOptions o;
  o.seed = 3;
  o.attach_wal = true;
  ShardFixture f;
  BuildShardFixture(o, &f);
  SecureStore* store = f.sharded->store();
  std::vector<PatternTree> queries = MakeShardQueries(f.doc, 3, 3);
  size_t num_subjects = o.num_subjects;
  const NodeId n = store->num_nodes();

  // An ACL range flip spanning a window boundary.
  const NodeId b0 = f.sharded->Windows().range(0).end_node;
  ASSERT_TRUE(f.single->SetRangeAccess(b0 - 5, b0 + 5, 1, false).ok());
  ASSERT_TRUE(store->SetRangeAccess(b0 - 5, b0 + 5, 1, false).ok());
  CheckMirrors(&f, queries, num_subjects, "range-acl");

  // A subtree flip rooted mid-document.
  ASSERT_TRUE(f.single->SetSubtreeAccess(n / 2, 2, true).ok());
  ASSERT_TRUE(store->SetSubtreeAccess(n / 2, 2, true).ok());
  CheckMirrors(&f, queries, num_subjects, "subtree-acl");

  // Subject management (codebook-wide).
  auto sa = f.single->AddSubject(true);
  auto ga = store->AddSubject(true);
  ASSERT_TRUE(sa.ok() && ga.ok());
  EXPECT_EQ(*sa, *ga);
  ++num_subjects;
  auto sl = f.single->AddSubjectLike(0);
  auto gl = store->AddSubjectLike(0);
  ASSERT_TRUE(sl.ok() && gl.ok());
  EXPECT_EQ(*sl, *gl);
  ++num_subjects;
  CheckMirrors(&f, queries, num_subjects, "add-subjects");

  ASSERT_TRUE(
      f.single->RemoveSubject(static_cast<SubjectId>(num_subjects - 1)).ok());
  ASSERT_TRUE(
      store->RemoveSubject(static_cast<SubjectId>(num_subjects - 1)).ok());
  --num_subjects;
  CheckMirrors(&f, queries, num_subjects, "remove-subject");

  // Structural deletion, then insertion of a labeled fragment under the
  // root, then codebook compaction.
  ASSERT_TRUE(f.single->DeleteSubtree(n / 3).ok());
  ASSERT_TRUE(store->DeleteSubtree(n / 3).ok());
  CheckMirrors(&f, queries, num_subjects, "delete-subtree");

  Document frag = MakeFragment();
  DenseAccessMap fmap(static_cast<NodeId>(frag.NumNodes()), num_subjects);
  for (SubjectId s = 0; s < num_subjects; ++s) {
    fmap.SetSubtree(frag, s, 0, s % 2 == 0);
  }
  auto spos =
      f.single->InsertSubtree(0, kInvalidNode, frag, DolLabeling::Build(fmap));
  auto gpos =
      store->InsertSubtree(0, kInvalidNode, frag, DolLabeling::Build(fmap));
  ASSERT_TRUE(spos.ok()) << spos.status();
  ASSERT_TRUE(gpos.ok()) << gpos.status();
  EXPECT_EQ(*spos, *gpos);
  CheckMirrors(&f, queries, num_subjects, "insert-subtree");

  ASSERT_TRUE(f.single->CompactCodebook().ok());
  ASSERT_TRUE(store->CompactCodebook().ok());
  CheckMirrors(&f, queries, num_subjects, "compact");
}

TEST(ShardedStoreTest, VacuumReplicatesAndRefreshesTheShardMap) {
  ShardFixtureOptions o;
  o.seed = 41;
  o.attach_wal = true;
  ShardFixture f;
  BuildShardFixture(o, &f);
  SecureStore* store = f.sharded->store();
  std::vector<PatternTree> queries = MakeShardQueries(f.doc, 41, 3);
  const NodeId n = store->num_nodes();

  // Structural churn moves page boundaries: a deletion shrinks the node
  // space, an insertion under the root grows it.
  ASSERT_TRUE(f.single->DeleteSubtree(n / 3).ok());
  ASSERT_TRUE(store->DeleteSubtree(n / 3).ok());
  ExpectWindowsTile(f.sharded.get(), "delete-subtree");
  Document frag = MakeFragment();
  DenseAccessMap fmap(static_cast<NodeId>(frag.NumNodes()), o.num_subjects);
  for (SubjectId s = 0; s < o.num_subjects; ++s) {
    fmap.SetSubtree(frag, s, 0, true);
  }
  ASSERT_TRUE(
      f.single->InsertSubtree(0, kInvalidNode, frag, DolLabeling::Build(fmap))
          .ok());
  ASSERT_TRUE(
      store->InsertSubtree(0, kInvalidNode, frag, DolLabeling::Build(fmap))
          .ok());
  ExpectWindowsTile(f.sharded.get(), "insert-subtree");
  CheckMirrors(&f, queries, o.num_subjects, "structural");

  // Churn ACLs so the vacuum has transitions to fold, mirrored on both.
  const NodeId m = store->num_nodes();
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(
        f.single->SetSubtreeAccess(static_cast<NodeId>(i * m / 6), 1, false)
            .ok());
    ASSERT_TRUE(
        store->SetSubtreeAccess(static_cast<NodeId>(i * m / 6), 1, false)
            .ok());
  }
  const size_t pages_before = store->nok()->num_pages();
  SecureStore::VacuumOptions vopts;
  vopts.checkpoint_after = true;
  SecureStore::VacuumStats single_stats, sharded_stats;
  ASSERT_TRUE(f.single->Vacuum(vopts, &single_stats).ok());
  ASSERT_TRUE(store->Vacuum(vopts, &sharded_stats).ok());
  EXPECT_EQ(sharded_stats.pages_before, pages_before);
  EXPECT_EQ(sharded_stats.pages_after, single_stats.pages_after);
  EXPECT_EQ(store->nok()->num_pages(), sharded_stats.pages_after);

  CheckMirrors(&f, queries, o.num_subjects, "vacuum");
  ExpectWindowsTile(f.sharded.get(), "vacuum");
  // The windows are cut from the vacuumed page directory.
  EXPECT_EQ(f.sharded->Windows().range(o.num_shards - 1).end_page,
            sharded_stats.pages_after);
}

}  // namespace
}  // namespace secxml
