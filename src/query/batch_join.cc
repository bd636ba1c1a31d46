#include "query/batch_join.h"

#include <algorithm>
#include <cstdint>

#include "common/dcheck.h"

namespace secxml {

namespace {

/// A binding in a node-ordered sweep: its node inline (the sort key), the
/// binding itself, and `index` — the owning match for join sources and
/// returning bindings, the binding's ordinal within its slot for validity.
struct BindingRef {
  NodeId node;
  uint32_t index;
  const MaskedBinding* binding;
};

/// Bindings of nested matches interleave, so a slot's bindings gathered
/// match by match need not ascend; most lists do, and skip the sort.
void SortByNode(std::vector<BindingRef>* refs) {
  auto by_node = [](const BindingRef& a, const BindingRef& b) {
    return a.node < b.node;
  };
  if (!std::is_sorted(refs->begin(), refs->end(), by_node)) {
    std::stable_sort(refs->begin(), refs->end(), by_node);
  }
}

/// The first index at or after `from` whose node is >= `key`: exponential
/// probes bracket it, a binary search finds it.
size_t LowerBoundFrom(const std::vector<NodeId>& nodes, size_t from,
                      NodeId key) {
  size_t lo = from, hi = from, step = 1;
  while (hi < nodes.size() && nodes[hi] < key) {
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  hi = std::min(hi, nodes.size());
  return std::lower_bound(nodes.begin() + lo, nodes.begin() + hi, key) -
         nodes.begin();
}

/// One distinct bound node of a validity sweep, with the OR of the valid
/// masks of the child roots strictly inside its subtree.
struct JoinNode {
  NodeId node;
  NodeId end;
  ClassMask inside;
};

/// Credits every live root of `child` to the innermost node of `nodes`
/// (sorted by node, laminar) that strictly contains it; a closing node ORs
/// its result into the node enclosing it. `open` is scratch.
void CreditRoots(const std::vector<BatchFragmentMatch>& child,
                 const std::vector<ClassMask>& valid,
                 std::vector<JoinNode>* nodes, std::vector<uint32_t>* open) {
  std::vector<JoinNode>& n = *nodes;
  auto close = [&] {
    const uint32_t done = open->back();
    open->pop_back();
    if (!open->empty()) n[open->back()].inside |= n[done].inside;
  };
  size_t next = 0;
  for (size_t r = 0; r < child.size(); ++r) {
    if (valid[r].none()) continue;
    const NodeId root = child[r].root;
    // A node equal to the root does not contain it: open only nodes that
    // start strictly before it.
    for (; next < n.size() && n[next].node < root; ++next) {
      while (!open->empty() && n[open->back()].end <= n[next].node) close();
      open->push_back(static_cast<uint32_t>(next));
    }
    while (!open->empty() && n[open->back()].end <= root) close();
    if (!open->empty()) n[open->back()].inside |= valid[r];
  }
  while (!open->empty()) close();
}

/// Gathers the bindings at `slot` of the matches whose mask is live.
/// `by_match` picks the ref index: the match, or the binding's ordinal.
void GatherBindings(const std::vector<BatchFragmentMatch>& fm,
                    const std::vector<ClassMask>& live, int slot,
                    bool by_match, std::vector<BindingRef>* refs) {
  size_t total = 0;
  for (size_t mi = 0; mi < fm.size(); ++mi) {
    if (live[mi].any()) total += fm[mi].bindings[slot].size();
  }
  refs->clear();
  refs->reserve(total);
  uint32_t ordinal = 0;
  for (size_t mi = 0; mi < fm.size(); ++mi) {
    if (live[mi].none()) continue;
    for (const MaskedBinding& b : fm[mi].bindings[slot]) {
      refs->push_back(
          {b.node, by_match ? static_cast<uint32_t>(mi) : ordinal++, &b});
    }
  }
}

}  // namespace

BatchJoinResult JoinBatchMatches(
    const PreparedQuery& pq,
    const std::vector<std::vector<BatchFragmentMatch>>& matches, size_t width,
    std::span<const std::vector<NodeInterval>* const> hidden) {
  const size_t nf = pq.query.fragments.size();
  BatchJoinResult out;
  out.answers.resize(width);
  out.fragment_matches.assign(width, 0);

  // One mask per match: `ok`, then visibility, then validity, then reach,
  // each narrowing the last in place.
  const ClassMask chunk = ClassMask::FirstN(width);
  std::vector<std::vector<ClassMask>> mask(nf);
  for (size_t f = 0; f < nf; ++f) {
    mask[f].reserve(matches[f].size());
    for (size_t mi = 0; mi < matches[f].size(); ++mi) {
      const BatchFragmentMatch& m = matches[f][mi];
      SECXML_DCHECK(mi == 0 || matches[f][mi - 1].root <= m.root);
      mask[f].push_back(m.ok & chunk);
      mask[f].back().ForEachSetBit([&](size_t k) {
        ++out.fragment_matches[k];
      });
    }
  }

  // Visibility (view semantics): a root inside one of class k's hidden
  // intervals loses bit k before any join sees it. Each interval gallops
  // over the fragment's roots from where the last one ended, so a class
  // with H intervals costs O(H log(R / H)) for R roots.
  std::vector<NodeId> roots;
  for (size_t f = 0; f < nf && !hidden.empty(); ++f) {
    roots.clear();
    roots.reserve(matches[f].size());
    for (const BatchFragmentMatch& m : matches[f]) roots.push_back(m.root);
    for (size_t k = 0; k < hidden.size(); ++k) {
      size_t pos = 0;
      for (const NodeInterval& iv : *hidden[k]) {
        pos = LowerBoundFrom(roots, pos, iv.begin);
        for (; pos < roots.size() && roots[pos] < iv.end; ++pos) {
          mask[f][pos].Reset(k);
        }
        if (pos == roots.size()) break;
      }
    }
  }

  std::vector<BindingRef> refs;
  std::vector<JoinNode> nodes;
  std::vector<uint32_t> node_of;
  std::vector<uint32_t> open;

  // Bottom-up validity, children before parents: a match stays valid for
  // the classes that connect to a valid root of every child fragment.
  for (size_t fi = nf; fi-- > 0;) {
    const std::vector<BatchFragmentMatch>& fm = matches[fi];
    std::vector<ClassMask>& valid = mask[fi];
    for (size_t ci = 0; ci < pq.children[fi].size(); ++ci) {
      const int c = pq.children[fi][ci];
      const int slot = pq.child_slot[fi][ci];
      GatherBindings(fm, valid, slot, /*by_match=*/false, &refs);
      SortByNode(&refs);
      // Equal nodes share one interval (a node's subtree end is unique).
      size_t distinct = 0;
      for (size_t i = 0; i < refs.size(); ++i) {
        distinct += i == 0 || refs[i].node != refs[i - 1].node;
      }
      nodes.clear();
      nodes.reserve(distinct);
      node_of.resize(refs.size());
      for (const BindingRef& r : refs) {
        if (nodes.empty() || nodes.back().node != r.node) {
          nodes.push_back({r.node, r.binding->end, ClassMask()});
        }
        node_of[r.index] = static_cast<uint32_t>(nodes.size() - 1);
      }
      CreditRoots(matches[c], mask[c], &nodes, &open);
      out.join.nodes_scanned += refs.size() + matches[c].size();

      // The gather's order again: ordinals index node_of.
      uint32_t ordinal = 0;
      for (size_t mi = 0; mi < fm.size(); ++mi) {
        if (valid[mi].none()) continue;
        ClassMask connected;
        for (const MaskedBinding& b : fm[mi].bindings[slot]) {
          connected |= b.mask & nodes[node_of[ordinal++]].inside;
        }
        valid[mi] &= connected;
      }
    }
  }

  // Top-down reach: the first fragment's valid matches are reached; a child
  // match is reached for the classes of the open join sources (bindings of
  // reached parent matches, masked by that reach) strictly containing its
  // root. The stack keeps each open source's OR with everything enclosing
  // it — the mask form of SemiJoinDescendants.
  struct OpenSource {
    NodeId end;
    ClassMask reach;
  };
  std::vector<OpenSource> sources;
  for (size_t f = 1; f < nf; ++f) {
    const int p = pq.query.fragments[f].parent_fragment;
    int slot = -1;
    for (size_t ci = 0; ci < pq.children[p].size(); ++ci) {
      if (pq.children[p][ci] == static_cast<int>(f)) {
        slot = pq.child_slot[p][ci];
        break;
      }
    }
    GatherBindings(matches[p], mask[p], slot, /*by_match=*/true, &refs);
    SortByNode(&refs);
    out.join.nodes_scanned += refs.size() + matches[f].size();
    sources.clear();
    size_t next = 0;
    for (size_t mi = 0; mi < matches[f].size(); ++mi) {
      ClassMask& reach = mask[f][mi];
      if (reach.none()) continue;
      const NodeId root = matches[f][mi].root;
      for (; next < refs.size() && refs[next].node < root; ++next) {
        const BindingRef& r = refs[next];
        while (!sources.empty() && sources.back().end <= r.node) {
          sources.pop_back();
        }
        ClassMask src = r.binding->mask & mask[p][r.index];
        if (!sources.empty()) src |= sources.back().reach;
        sources.push_back({r.binding->end, src});
      }
      while (!sources.empty() && sources.back().end <= root) {
        sources.pop_back();
      }
      reach = sources.empty() ? ClassMask() : reach & sources.back().reach;
    }
  }

  // Answers: returning bindings of reached matches, masked by that reach.
  // Ascending node order with equal nodes merged makes every class's list
  // sorted and duplicate-free as it is filled.
  const int rf = pq.query.returning_fragment;
  GatherBindings(matches[rf], mask[rf], pq.ret_slot[rf], /*by_match=*/true,
                 &refs);
  SortByNode(&refs);
  for (size_t i = 0; i < refs.size();) {
    const NodeId node = refs[i].node;
    ClassMask classes;
    for (; i < refs.size() && refs[i].node == node; ++i) {
      classes |= refs[i].binding->mask & mask[rf][refs[i].index];
    }
    classes.ForEachSetBit([&](size_t k) { out.answers[k].push_back(node); });
  }
  return out;
}

}  // namespace secxml
