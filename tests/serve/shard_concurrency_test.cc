// Pin adoption under a concurrent writer: every scatter worker of one
// coordinator request adopts the request's snapshot pin, so all windows of
// the request read one epoch. A writer toggles subject 0's access over a
// range spanning the boundary between windows 1 and 2 while readers stream
// Evaluate, Run and EvaluateForSubjects through the coordinator; every
// answer must equal the answer of one of the two states the writer toggles
// between. A request whose windows straddled a commit would mix the two.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "query/evaluator.h"
#include "query/xpath_parser.h"
#include "serve/shard_coordinator.h"
#include "serve/sharded_store.h"
#include "shard_test_util.h"

namespace secxml {
namespace {

constexpr int kWriterUpdates = 2000;
constexpr int kReaders = 3;

TEST(ShardConcurrencyTest, WindowsOfOneRequestShareTheAdoptedEpoch) {
  ShardFixtureOptions o;
  o.seed = 71;
  ShardFixture f;
  BuildShardFixture(o, &f);
  SecureStore* store = f.sharded->store();
  PatternTree query;
  ASSERT_TRUE(ParseXPath("//*", &query).ok());

  // The toggled range straddles the boundary between windows 1 and 2.
  const ShardMap windows = f.sharded->Windows();
  const NodeId boundary = windows.range(1).end_node;
  ASSERT_FALSE(windows.range(1).empty());
  ASSERT_FALSE(windows.range(2).empty());
  const NodeId begin = boundary - 20;
  const NodeId end = boundary + 20;
  ASSERT_GE(begin, windows.range(1).first_node);
  ASSERT_LE(end, windows.range(2).end_node);

  // Oracles per semantics: state A (range accessible to subject 0) and
  // state B (revoked), from the single-store evaluator on the same store.
  // Subject 0 first gets the whole document, so that under view semantics
  // the range is not already hidden by an inaccessible ancestor.
  ASSERT_TRUE(store->SetSubtreeAccess(0, 0, true).ok());
  const AccessSemantics kSems[] = {AccessSemantics::kBinding,
                                   AccessSemantics::kView};
  std::vector<NodeId> oracle_a[2], oracle_b[2];
  QueryEvaluator eval(store);
  for (bool accessible : {false, true}) {
    ASSERT_TRUE(store->SetRangeAccess(begin, end, 0, accessible).ok());
    for (size_t si = 0; si < 2; ++si) {
      EvalOptions opts;
      opts.semantics = kSems[si];
      opts.subject = 0;
      auto r = eval.Evaluate(query, opts);
      ASSERT_TRUE(r.ok()) << r.status();
      (accessible ? oracle_a : oracle_b)[si] = r->answers;
    }
  }
  for (size_t si = 0; si < 2; ++si) {
    ASSERT_NE(oracle_a[si], oracle_b[si]) << "semantics " << si;
  }
  auto matches_an_oracle = [&](size_t si, const std::vector<NodeId>& got) {
    return got == oracle_a[si] || got == oracle_b[si];
  };

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    bool accessible = true;
    for (int i = 0; i < kWriterUpdates; ++i) {
      accessible = !accessible;
      Status st = store->SetRangeAccess(begin, end, 0, accessible);
      ASSERT_TRUE(st.ok()) << st;
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      ShardCoordinatorOptions copts[2];
      copts[0].semantics = kSems[0];
      copts[1].semantics = kSems[1];
      ShardCoordinator coords[2] = {{f.sharded.get(), copts[0]},
                                    {f.sharded.get(), copts[1]}};
      const std::vector<SubjectId> subjects = {0, 1, 2};
      // Keep reading until the writer is done, and at least a few rounds.
      for (int i = 0; i < 6 || !writer_done.load(std::memory_order_acquire);
           ++i) {
        const size_t si = static_cast<size_t>(i + t) % 2;
        ShardCoordinator& coord = coords[si];
        switch (i % 3) {
          case 0: {
            auto r = coord.Evaluate(query, 0);
            ASSERT_TRUE(r.ok()) << r.status();
            EXPECT_TRUE(matches_an_oracle(si, r->answers))
                << "Evaluate, semantics " << si << ", iteration " << i;
            break;
          }
          case 1: {
            BatchResult b = coord.Run({{0, query}, {1, query}});
            ASSERT_EQ(b.stats.failed, 0u) << b.stats.first_error;
            EXPECT_TRUE(matches_an_oracle(si, b.outcomes[0].result.answers))
                << "Run, semantics " << si << ", iteration " << i;
            break;
          }
          default: {
            auto b = coord.EvaluateForSubjects(query, subjects);
            ASSERT_TRUE(b.ok()) << b.status();
            EXPECT_TRUE(matches_an_oracle(si, b->ResultFor(0).answers))
                << "EvaluateForSubjects, semantics " << si << ", iteration "
                << i;
            break;
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(store->epochs()->active_pins(), 0u);
}

}  // namespace
}  // namespace secxml
