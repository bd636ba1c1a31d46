#ifndef SECXML_TESTS_SERVE_SHARD_TEST_UTIL_H_
#define SECXML_TESTS_SERVE_SHARD_TEST_UTIL_H_

// Shared fixture for the sharded-serving suites: one XMark document with a
// synthetic multi-subject ACL, built twice — as a single reference
// SecureStore and as a ShardedStore cut into N windows over a ShardFileSet —
// so every test is a differential against the single-store evaluators.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/dol_labeling.h"
#include "core/secure_store.h"
#include "query/evaluator.h"
#include "query/pattern_tree.h"
#include "serve/shard_coordinator.h"
#include "serve/sharded_store.h"
#include "storage/paged_file.h"
#include "workload/query_generator.h"
#include "workload/synthetic_acl.h"
#include "xml/xmark_generator.h"

namespace secxml {

struct ShardFixture {
  Document doc;
  DolLabeling labeling;
  MemPagedFile single_file;
  std::unique_ptr<SecureStore> single;
  std::unique_ptr<ShardFileSet> files;
  std::unique_ptr<ShardedStore> sharded;
};

struct ShardFixtureOptions {
  uint64_t seed = 1;
  size_t num_subjects = 12;
  /// < num_subjects makes column-equal subjects (class dedup actually
  /// collapses something).
  size_t num_profiles = 5;
  size_t num_shards = 4;
  bool attach_wal = false;
  size_t target_nodes = 2000;
  uint32_t max_records_per_page = 32;
};

inline void BuildShardFixture(const ShardFixtureOptions& o, ShardFixture* f) {
  XMarkOptions xopts;
  xopts.seed = o.seed + 300;
  xopts.target_nodes = o.target_nodes;
  ASSERT_TRUE(GenerateXMark(xopts, &f->doc).ok());
  IntervalAccessMap map(static_cast<NodeId>(f->doc.NumNodes()),
                        o.num_subjects);
  for (SubjectId s = 0; s < o.num_subjects; ++s) {
    SyntheticAclOptions aopts;
    aopts.seed = o.seed * 100 + s % o.num_profiles;
    aopts.accessibility_ratio = 0.6;
    map.SetSubjectIntervals(s, GenerateSyntheticAcl(f->doc, aopts));
  }
  ASSERT_TRUE(map.Validate().ok());
  f->labeling = DolLabeling::BuildFromEvents(map.num_nodes(), map.InitialAcl(),
                                             map.CollectEvents());
  NokStoreOptions sopts;
  sopts.max_records_per_page = o.max_records_per_page;
  ASSERT_TRUE(
      SecureStore::Build(f->doc, f->labeling, &f->single_file, sopts,
                         &f->single)
          .ok());

  ShardedStoreOptions shopts;
  shopts.num_shards = o.num_shards;
  shopts.nok = sopts;
  shopts.attach_wal = o.attach_wal;
  f->files = std::make_unique<ShardFileSet>(o.num_shards);
  Status st = ShardedStore::Build(f->doc, f->labeling, shopts,
                                  f->files->provider(), &f->sharded);
  ASSERT_TRUE(st.ok()) << st;
}

inline std::vector<PatternTree> MakeShardQueries(const Document& doc,
                                                 uint64_t seed, int count) {
  std::vector<PatternTree> queries;
  for (int i = 0; i < count; ++i) {
    QueryGenOptions qopts;
    qopts.seed = seed * 5000 + static_cast<uint64_t>(i);
    qopts.max_nodes = 2 + i % 5;
    queries.push_back(GenerateTwigQuery(doc, qopts));
  }
  return queries;
}

}  // namespace secxml

#endif  // SECXML_TESTS_SERVE_SHARD_TEST_UTIL_H_
