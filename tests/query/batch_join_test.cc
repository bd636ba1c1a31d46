// Differential tests for the mask-valued ε-STD join (query/batch_join.h).
// The oracle is the per-class pipeline the join replaces (join_oracle.h):
// project class k out of the batch matches, filter the roots through class
// k's hidden intervals, then JoinMatches. On seeded random
// BatchFragmentMatch lists over random trees, every class's answers and
// fragment_matches must match it exactly — across nested and duplicate
// bindings, bindings equal to a child root, empty and all-ones masks,
// widths 1/64/65/128, plans of 1-4 fragments up to 3 levels deep, and
// hidden intervals covering roots.

#include "query/batch_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query/evaluator.h"
#include "join_oracle.h"

namespace secxml {
namespace {

/// Checks every class of JoinBatchMatches against the per-class pipeline.
void ExpectMatchesOracle(
    const PreparedQuery& pq,
    const std::vector<std::vector<BatchFragmentMatch>>& matches, size_t width,
    const std::vector<std::vector<NodeInterval>>& hidden,
    const std::string& what) {
  std::vector<const std::vector<NodeInterval>*> hidden_of;
  for (const std::vector<NodeInterval>& h : hidden) hidden_of.push_back(&h);
  BatchJoinResult got = JoinBatchMatches(pq, matches, width, hidden_of);
  ASSERT_EQ(got.answers.size(), width) << what;
  ASSERT_EQ(got.fragment_matches.size(), width) << what;
  for (size_t k = 0; k < width; ++k) {
    std::vector<std::vector<FragmentMatch>> projected;
    size_t fragment_matches = 0;
    for (const auto& fm : matches) {
      projected.push_back(ProjectClassMatches(fm, k));
      fragment_matches += projected.back().size();
    }
    ExecStats stats;
    if (!hidden.empty()) FilterMatchesVisible(hidden[k], &projected, &stats);
    std::vector<NodeId> answers;
    JoinMatches(pq, projected, &answers, &stats);
    EXPECT_EQ(got.answers[k], answers) << what << " class " << k;
    EXPECT_EQ(got.fragment_matches[k], fragment_matches)
        << what << " class " << k;
  }
}

/// A random tree in preorder: node v's subtree is [v, end[v]), so any two
/// subtree intervals are nested or disjoint, as bindings are. Each new node
/// hangs off the current rightmost path, mostly its deepest node, which
/// keeps the tree deep enough for nested matches.
std::vector<NodeId> RandomTreeEnds(Rng* rng, size_t n) {
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<NodeId> path = {0};
  for (NodeId v = 1; v < n; ++v) {
    if (rng->Bernoulli(0.4)) path.resize(1 + rng->Uniform(path.size()));
    parent[v] = path.back();
    path.push_back(v);
  }
  std::vector<NodeId> end(n);
  for (NodeId v = 0; v < n; ++v) end[v] = v + 1;
  for (NodeId v = static_cast<NodeId>(n); v-- > 1;) {
    end[parent[v]] = std::max(end[parent[v]], end[v]);
  }
  return end;
}

/// A random plan of 1-4 fragments, at most 3 levels deep, with 1-3
/// designated slots per fragment; join and returning slots may coincide.
PreparedQuery RandomPlan(Rng* rng) {
  PreparedQuery pq;
  const size_t nf = 1 + rng->Uniform(4);
  pq.query.fragments.resize(nf);
  pq.children.resize(nf);
  pq.designated.resize(nf);
  pq.child_slot.resize(nf);
  pq.ret_slot.assign(nf, -1);
  std::vector<int> depth(nf, 0);
  for (size_t f = 0; f < nf; ++f) {
    pq.designated[f].resize(1 + rng->Uniform(3));
    for (size_t i = 0; i < pq.designated[f].size(); ++i) {
      pq.designated[f][i] = static_cast<int>(i);
    }
    if (f == 0) continue;
    int p;
    do {
      p = static_cast<int>(rng->Uniform(f));
    } while (depth[p] >= 2);
    depth[f] = depth[p] + 1;
    pq.query.fragments[f].parent_fragment = p;
    pq.children[p].push_back(static_cast<int>(f));
    pq.child_slot[p].push_back(
        static_cast<int>(rng->Uniform(pq.designated[p].size())));
  }
  const int rf = static_cast<int>(rng->Uniform(nf));
  pq.query.returning_fragment = rf;
  pq.ret_slot[rf] = static_cast<int>(rng->Uniform(pq.designated[rf].size()));
  return pq;
}

/// A random mask over `width` classes: empty, all-ones, or random bits of a
/// random density.
ClassMask RandomMask(Rng* rng, size_t width) {
  const uint64_t pick = rng->Uniform(10);
  if (pick == 0) return ClassMask();
  if (pick <= 2) return ClassMask::FirstN(width);
  const double density = rng->NextDouble();
  ClassMask m;
  for (size_t k = 0; k < width; ++k) {
    if (rng->Bernoulli(density)) m.Set(k);
  }
  return m;
}

struct RandomCase {
  PreparedQuery pq;
  std::vector<std::vector<BatchFragmentMatch>> matches;
  std::vector<std::vector<NodeInterval>> hidden;
};

RandomCase MakeRandomCase(uint64_t seed, size_t width, bool view) {
  Rng rng(seed);
  RandomCase c;
  c.pq = RandomPlan(&rng);
  const size_t n = 8 + rng.Uniform(120);
  const std::vector<NodeId> end = RandomTreeEnds(&rng, n);
  const size_t nf = c.pq.query.fragments.size();

  // Ascending, distinct roots per fragment; roots of one fragment nest.
  c.matches.resize(nf);
  for (size_t f = 0; f < nf; ++f) {
    const double density = 0.05 + 0.5 * rng.NextDouble();
    for (NodeId v = 0; v < n; ++v) {
      if (!rng.Bernoulli(density)) continue;
      BatchFragmentMatch m;
      m.root = v;
      m.root_end = end[v];
      m.ok = RandomMask(&rng, width);
      m.bindings.resize(c.pq.designated[f].size());
      c.matches[f].push_back(std::move(m));
    }
  }

  // Bindings in random discovery order, inside the match's subtree: often
  // a child fragment's root exactly, sometimes a repeat.
  for (size_t f = 0; f < nf; ++f) {
    for (BatchFragmentMatch& m : c.matches[f]) {
      for (size_t s = 0; s < m.bindings.size(); ++s) {
        std::vector<NodeId> child_roots;
        for (size_t ci = 0; ci < c.pq.children[f].size(); ++ci) {
          if (c.pq.child_slot[f][ci] != static_cast<int>(s)) continue;
          for (const auto& cm : c.matches[c.pq.children[f][ci]]) {
            if (cm.root >= m.root && cm.root < m.root_end) {
              child_roots.push_back(cm.root);
            }
          }
        }
        const size_t count = rng.Uniform(5);
        for (size_t i = 0; i < count; ++i) {
          NodeId node;
          if (!m.bindings[s].empty() && rng.Bernoulli(0.15)) {
            node = m.bindings[s][rng.Uniform(m.bindings[s].size())].node;
          } else if (!child_roots.empty() && rng.Bernoulli(0.3)) {
            node = child_roots[rng.Uniform(child_roots.size())];
          } else {
            node = m.root +
                   static_cast<NodeId>(rng.Uniform(m.root_end - m.root));
          }
          ClassMask mask = RandomMask(&rng, width);
          if (rng.Bernoulli(0.7)) mask &= m.ok;
          m.bindings[s].push_back({node, end[node], mask});
        }
      }
    }
  }

  // Hidden intervals: maximal, sorted, disjoint subtree intervals, often
  // rooted at a match root.
  if (view) {
    c.hidden.resize(width);
    for (size_t k = 0; k < width; ++k) {
      std::vector<NodeInterval> picked;
      const size_t count = rng.Uniform(5);
      for (size_t i = 0; i < count; ++i) {
        NodeId v = static_cast<NodeId>(rng.Uniform(n));
        const auto& fm = c.matches[rng.Uniform(nf)];
        if (!fm.empty() && rng.Bernoulli(0.5)) {
          v = fm[rng.Uniform(fm.size())].root;
        }
        picked.push_back({v, end[v]});
      }
      std::sort(picked.begin(), picked.end(),
                [](const NodeInterval& a, const NodeInterval& b) {
                  return a.begin < b.begin;
                });
      for (const NodeInterval& iv : picked) {
        if (c.hidden[k].empty() || c.hidden[k].back().end <= iv.begin) {
          c.hidden[k].push_back(iv);
        }
      }
    }
  }
  return c;
}

TEST(BatchJoinTest, MatchesPerClassPipelineOnRandomInputs) {
  for (size_t width : {size_t{1}, size_t{64}, size_t{65}, size_t{128}}) {
    const uint64_t cases = width == 128 ? 120 : 300;
    for (bool view : {false, true}) {
      for (uint64_t seed = 0; seed < cases; ++seed) {
        RandomCase c = MakeRandomCase(seed * 7919 + width, width, view);
        ExpectMatchesOracle(c.pq, c.matches, width, c.hidden,
                            "width " + std::to_string(width) + " view " +
                                std::to_string(view) + " seed " +
                                std::to_string(seed));
        if (HasFailure()) return;
      }
    }
  }
}

// Two-fragment plan //a//a over the chain 0 -> 1 -> 2 -> 3: the parent
// fragment's join source is its own root, so every binding equals a child
// root, and only roots strictly below a binding connect.
PreparedQuery TwoFragmentPlan() {
  PreparedQuery pq;
  pq.query.fragments.resize(2);
  pq.query.fragments[1].parent_fragment = 0;
  pq.query.returning_fragment = 1;
  pq.children = {{1}, {}};
  pq.designated = {{0}, {0}};
  pq.child_slot = {{0}, {}};
  pq.ret_slot = {-1, 0};
  return pq;
}

BatchFragmentMatch ChainMatch(NodeId root, const ClassMask& ok) {
  BatchFragmentMatch m;
  m.root = root;
  m.root_end = 4;
  m.ok = ok;
  m.bindings = {{{root, 4, ok}}};
  return m;
}

TEST(BatchJoinTest, BindingEqualToChildRootDoesNotConnect) {
  const ClassMask both = ClassMask::FirstN(2);
  const PreparedQuery pq = TwoFragmentPlan();
  // Class 1 matches the parent only at the deepest node: its binding equals
  // the one child root below it, so nothing connects for class 1.
  ClassMask only0;
  only0.Set(0);
  std::vector<std::vector<BatchFragmentMatch>> matches = {
      {ChainMatch(2, only0), ChainMatch(3, both)},
      {ChainMatch(2, both), ChainMatch(3, both)}};
  BatchJoinResult got = JoinBatchMatches(pq, matches, 2, {});
  EXPECT_EQ(got.answers[0], (std::vector<NodeId>{3}));
  EXPECT_TRUE(got.answers[1].empty());
  EXPECT_EQ(got.fragment_matches[0], 4u);
  EXPECT_EQ(got.fragment_matches[1], 3u);
  ExpectMatchesOracle(pq, matches, 2, {}, "chain");

  // Returning the parent instead: the match at 3 stays invalid for class 1.
  PreparedQuery parent_returns = pq;
  parent_returns.query.returning_fragment = 0;
  parent_returns.ret_slot = {0, -1};
  got = JoinBatchMatches(parent_returns, matches, 2, {});
  EXPECT_EQ(got.answers[0], (std::vector<NodeId>{2}));
  EXPECT_TRUE(got.answers[1].empty());
  ExpectMatchesOracle(parent_returns, matches, 2, {}, "chain, parent");
}

TEST(BatchJoinTest, NestedMatchesInterleaveBindings) {
  // Parent matches at 0 and 1 bind nested nodes out of document order
  // (5, 2 then 3): the sweep must sort them to credit child roots 3 and 6.
  const PreparedQuery pq = TwoFragmentPlan();
  const std::vector<NodeId> end = {8, 8, 5, 4, 5, 7, 7, 8};
  const ClassMask all = ClassMask::FirstN(3);
  auto bind = [&](NodeId node, size_t k) {
    return MaskedBinding{node, end[node], ClassMask::Bit(k)};
  };
  BatchFragmentMatch outer{0, 8, all, {{bind(5, 0), bind(2, 1)}}};
  BatchFragmentMatch inner{1, 8, all, {{bind(3, 2)}}};
  BatchFragmentMatch c3{3, 4, all, {{bind(3, 0), bind(3, 1), bind(3, 2)}}};
  BatchFragmentMatch c6{6, 7, all, {{bind(6, 0), bind(6, 1), bind(6, 2)}}};
  std::vector<std::vector<BatchFragmentMatch>> matches = {{outer, inner},
                                                          {c3, c6}};
  BatchJoinResult got = JoinBatchMatches(pq, matches, 3, {});
  EXPECT_EQ(got.answers[0], (std::vector<NodeId>{6}));
  EXPECT_EQ(got.answers[1], (std::vector<NodeId>{3}));
  EXPECT_TRUE(got.answers[2].empty());  // 3 does not contain itself
  ExpectMatchesOracle(pq, matches, 3, {}, "nested");
}

TEST(BatchJoinTest, HiddenChildRootDisconnectsOnlyItsClass) {
  // Class 1 hides the only child root below the parent's binding, so the
  // parent is invalid for class 1 — visibility applies before validity.
  PreparedQuery pq = TwoFragmentPlan();
  pq.query.returning_fragment = 0;
  pq.ret_slot = {0, -1};
  const ClassMask both = ClassMask::FirstN(2);
  std::vector<std::vector<BatchFragmentMatch>> matches = {
      {ChainMatch(1, both)}, {ChainMatch(2, both)}};
  std::vector<std::vector<NodeInterval>> hidden = {{}, {{2, 4}}};
  std::vector<const std::vector<NodeInterval>*> hidden_of = {&hidden[0],
                                                             &hidden[1]};
  BatchJoinResult got = JoinBatchMatches(pq, matches, 2, hidden_of);
  EXPECT_EQ(got.answers[0], (std::vector<NodeId>{1}));
  EXPECT_TRUE(got.answers[1].empty());
  // Counted before the filter, as the per-subject evaluator counts.
  EXPECT_EQ(got.fragment_matches[1], 2u);
  ExpectMatchesOracle(pq, matches, 2, hidden, "hidden child root");
}

}  // namespace
}  // namespace secxml
