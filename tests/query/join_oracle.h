#ifndef SECXML_TESTS_QUERY_JOIN_ORACLE_H_
#define SECXML_TESTS_QUERY_JOIN_ORACLE_H_

// The per-class (ε-)STD join pipeline that the mask join
// (query/batch_join.h) computes for every class of a chunk at once, kept
// here as its test oracle: project class k out of the batch matches, drop
// the matches whose root lies in one of class k's hidden intervals, then
// connect fragments with the bottom-up validity and top-down reachability
// ancestor-descendant semijoins. It reads one class's plain match lists
// and uses only the Stack-Tree-Desc primitives of query/structural_join.h,
// so it shares no code with the mask join it checks.

#include <algorithm>
#include <utility>
#include <vector>

#include "core/accessibility_map.h"
#include "exec/exec_stats.h"
#include "query/batch_matcher.h"
#include "query/evaluator.h"
#include "query/structural_join.h"

namespace secxml {

/// One class's match of a NoK fragment at a data root.
struct FragmentMatch {
  /// Data node bound to the fragment root, with its subtree end.
  NodeId root = 0;
  NodeId root_end = 0;
  /// Bindings for each designated pattern node: every data node bound to
  /// it in this match, as (node, subtree end) pairs in discovery order.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> bindings;
};

/// Class k's FragmentMatch list: the matches with bit k, their bindings
/// filtered to bit k, orders preserved.
inline std::vector<FragmentMatch> ProjectClassMatches(
    const std::vector<BatchFragmentMatch>& batch, size_t k) {
  std::vector<FragmentMatch> out;
  for (const BatchFragmentMatch& bm : batch) {
    if (!bm.ok.Test(k)) continue;
    FragmentMatch m;
    m.root = bm.root;
    m.root_end = bm.root_end;
    m.bindings.resize(bm.bindings.size());
    for (size_t i = 0; i < bm.bindings.size(); ++i) {
      for (const MaskedBinding& b : bm.bindings[i]) {
        if (b.mask.Test(k)) m.bindings[i].emplace_back(b.node, b.end);
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

/// View-semantics visibility filter (ε-STD, Section 4.2): drops every
/// fragment match whose root lies inside a hidden interval, in place. A
/// fragment root inside a hidden subtree cannot contribute (every other
/// bound node in the fragment is then visible too, since fragments are
/// child-edge chains of accessible nodes). Match roots must ascend.
inline void FilterMatchesVisible(
    const std::vector<NodeInterval>& hidden,
    std::vector<std::vector<FragmentMatch>>* matches, ExecStats* stats) {
  for (std::vector<FragmentMatch>& fm : *matches) {
    std::vector<NodeId> roots;
    roots.reserve(fm.size());
    for (const FragmentMatch& m : fm) roots.push_back(m.root);
    std::vector<NodeId> visible = FilterVisible(hidden, roots, stats);
    std::vector<FragmentMatch> kept;
    kept.reserve(visible.size());
    size_t vi = 0;
    for (FragmentMatch& m : fm) {
      if (vi < visible.size() && visible[vi] == m.root) {
        kept.push_back(std::move(m));
        ++vi;
      }
    }
    fm = std::move(kept);
  }
}

/// Connects one class's fragment matches with the (ε-)STD
/// ancestor-descendant semijoins (bottom-up validity, then top-down
/// reachability) and collects the returning-node bindings of complete
/// matches into sorted, duplicate-free `answers`.
inline void JoinMatches(const PreparedQuery& pq,
                        const std::vector<std::vector<FragmentMatch>>& matches,
                        std::vector<NodeId>* answers, ExecStats* join_stats) {
  const size_t nf = pq.query.fragments.size();

  // Bottom-up validity: a match is valid iff, for every child fragment,
  // some binding of the join-source node has a valid child root in its
  // subtree (the ancestor-descendant structural join, Section 4.1).
  std::vector<std::vector<char>> valid(nf);
  std::vector<std::vector<NodeId>> valid_roots(nf);
  for (size_t fi = nf; fi-- > 0;) {
    valid[fi].assign(matches[fi].size(), 1);
    for (size_t mi = 0; mi < matches[fi].size(); ++mi) {
      const FragmentMatch& m = matches[fi][mi];
      for (size_t ci = 0; ci < pq.children[fi].size(); ++ci) {
        int c = pq.children[fi][ci];
        const std::vector<NodeId>& roots = valid_roots[c];
        bool connected = false;
        for (const auto& [b, bend] : m.bindings[pq.child_slot[fi][ci]]) {
          ++join_stats->nodes_scanned;
          auto it = std::upper_bound(roots.begin(), roots.end(), b);
          if (it != roots.end() && *it < bend) {
            connected = true;
            break;
          }
        }
        if (!connected) {
          valid[fi][mi] = 0;
          break;
        }
      }
    }
    for (size_t mi = 0; mi < matches[fi].size(); ++mi) {
      if (valid[fi][mi]) valid_roots[fi].push_back(matches[fi][mi].root);
    }
  }

  // Top-down reachability: which valid matches participate in a complete
  // match anchored at the first fragment.
  std::vector<std::vector<char>> reach(nf);
  reach[0] = valid[0];
  for (size_t f = 1; f < nf; ++f) {
    int p = pq.query.fragments[f].parent_fragment;
    int slot = -1;
    for (size_t ci = 0; ci < pq.children[p].size(); ++ci) {
      if (pq.children[p][ci] == static_cast<int>(f)) {
        slot = pq.child_slot[p][ci];
        break;
      }
    }
    std::vector<JoinItem> sources;
    for (size_t mi = 0; mi < matches[p].size(); ++mi) {
      if (!reach[p][mi]) continue;
      for (const auto& [b, bend] : matches[p][mi].bindings[slot]) {
        sources.push_back({b, bend});
      }
    }
    std::sort(sources.begin(), sources.end(),
              [](const JoinItem& a, const JoinItem& b) {
                return a.node < b.node;
              });
    // A match is reachable iff valid and its root lies under some source:
    // the Stack-Tree-Desc semijoin over sorted inputs, merged back onto the
    // match list.
    std::vector<NodeId> roots;
    roots.reserve(matches[f].size());
    for (const FragmentMatch& m : matches[f]) roots.push_back(m.root);
    std::vector<NodeId> under = SemiJoinDescendants(sources, roots, join_stats);
    reach[f].assign(matches[f].size(), 0);
    size_t ui = 0;
    for (size_t mi = 0; mi < matches[f].size(); ++mi) {
      while (ui < under.size() && under[ui] < roots[mi]) ++ui;
      reach[f][mi] =
          valid[f][mi] && ui < under.size() && under[ui] == roots[mi];
    }
  }

  // Answers: returning-node bindings of valid, reachable matches.
  int rf = pq.query.returning_fragment;
  for (size_t mi = 0; mi < matches[rf].size(); ++mi) {
    if (!reach[rf][mi]) continue;
    for (const auto& [b, bend] : matches[rf][mi].bindings[pq.ret_slot[rf]]) {
      (void)bend;
      answers->push_back(b);
    }
  }
  std::sort(answers->begin(), answers->end());
  answers->erase(std::unique(answers->begin(), answers->end()),
                 answers->end());
}

}  // namespace secxml

#endif  // SECXML_TESTS_QUERY_JOIN_ORACLE_H_
