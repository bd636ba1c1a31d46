#include "query/batch_matcher.h"

#include <algorithm>

namespace secxml {

namespace {

/// Narrows every binding appended after the frame's marks to `keep` and
/// drops bindings whose mask ran empty (no class keeps them). Dropping only
/// touches the appended suffix, so marks recorded by enclosing frames stay
/// valid. This is the mask analogue of NokMatcher's rollback-by-resize.
void NarrowAppended(BatchFragmentMatch* match,
                    const std::vector<size_t>& marks, size_t base,
                    const ClassMask& keep) {
  const MaskKernels& kernels = ActiveMaskKernels();
  for (size_t i = 0; i < match->bindings.size(); ++i) {
    std::vector<MaskedBinding>& slot = match->bindings[i];
    size_t from = marks[base + i];
    if (from < slot.size()) {
      kernels.and_broadcast_strided(&slot[from].mask, sizeof(MaskedBinding),
                                    slot.size() - from, keep);
    }
    slot.erase(
        std::remove_if(slot.begin() + static_cast<long>(from), slot.end(),
                       [](const MaskedBinding& b) { return b.mask.none(); }),
        slot.end());
  }
}

/// Physically rolls back every binding appended after the marks (the
/// ordered path's feasibility probes never keep their appends).
void RollBackAppended(BatchFragmentMatch* match,
                      const std::vector<size_t>& marks, size_t base) {
  for (size_t i = 0; i < match->bindings.size(); ++i) {
    match->bindings[i].resize(marks[base + i]);
  }
}

}  // namespace

bool MultiSubjectMatcher::TagValueMatches(const ResolvedPattern& p,
                                          const NokRecord& rec) const {
  if (!p.wildcard) {
    if (p.tag == kInvalidTag || rec.tag != p.tag) return false;
  }
  if (p.has_value && store_->nok()->Value(rec) != *p.value) return false;
  return true;
}

Result<ClassMask> MultiSubjectMatcher::MatchChildrenOrdered(
    const std::vector<int>& pchildren, NodeId sroot, const NokRecord& srec,
    const ClassMask& live, BatchFragmentMatch* match) {
  // Materialize the data children once with their batch access masks.
  // Children no live class can access can never participate for anyone and
  // are dropped, like the per-subject walk drops inaccessible children;
  // per-class projections see their own accessible subsequence either way.
  struct Child {
    NodeId node;
    NokRecord rec;
    ClassMask amask;
  };
  std::vector<Child> data;
  {
    MultiSubjectCursor::ChildWalk walk(&cursor_, sroot, srec, live);
    NodeId u = kInvalidNode;
    NokRecord urec;
    ClassMask amask;
    for (;;) {
      SECXML_ASSIGN_OR_RETURN(bool more, walk.Next(&u, &urec, &amask));
      if (!more) break;
      if (amask.any()) data.push_back({u, urec, amask});
    }
  }
  const size_t K = pchildren.size();
  const size_t M = data.size();

  // Batch-memoized feasibility of (pattern child k, data child d): the mask
  // of classes for which the recursive probe succeeds AND the data child is
  // accessible. One probe answers all classes; per-class greedy passes below
  // consume single bits of it.
  std::vector<ClassMask> memo(K * M);
  std::vector<char> computed(K * M, 0);
  auto feasible = [&](size_t k, size_t d) -> Result<ClassMask> {
    if (computed[k * M + d]) return memo[k * M + d];
    const ResolvedPattern& rp = resolved_[pchildren[k]];
    ClassMask m;
    if (TagValueMatches(rp, data[d].rec)) {
      const size_t nb = match->bindings.size();
      const size_t base = mark_stack_.size();
      for (size_t i = 0; i < nb; ++i) {
        mark_stack_.push_back(match->bindings[i].size());
      }
      SECXML_ASSIGN_OR_RETURN(
          m, Npm(pchildren[k], data[d].node, data[d].rec, live, match));
      RollBackAppended(match, mark_stack_, base);
      mark_stack_.resize(base);
      m &= data[d].amask;
    }
    memo[k * M + d] = m;
    computed[k * M + d] = 1;
    return m;
  };

  // Per-class forward/backward greedy passes over the shared feasibility
  // masks (a class's infeasible entries include children it cannot access,
  // which its own walk would never have materialized — the greedy
  // subsequence assignment is identical over either sequence).
  std::vector<size_t> prefix_end(K), suffix_start(K);
  std::vector<std::vector<size_t>> prefix_end_of(cursor_.num_classes()),
      suffix_start_of(cursor_.num_classes());
  ClassMask succ;
  for (size_t c = 0; c < cursor_.num_classes(); ++c) {
    if (!live.Test(c)) continue;
    bool class_ok = true;
    size_t d = 0;
    for (size_t k = 0; k < K && class_ok; ++k) {
      class_ok = false;
      for (; d < M; ++d) {
        SECXML_ASSIGN_OR_RETURN(ClassMask fm, feasible(k, d));
        if (fm.Test(c)) {
          prefix_end[k] = d;
          ++d;
          class_ok = true;
          break;
        }
      }
    }
    if (!class_ok) continue;
    size_t dl = M;
    for (size_t k = K; k-- > 0;) {
      bool found = false;
      while (dl-- > 0) {
        SECXML_ASSIGN_OR_RETURN(ClassMask fm, feasible(k, dl));
        if (fm.Test(c)) {
          suffix_start[k] = dl;
          found = true;
          break;
        }
      }
      if (!found) break;  // unreachable: forward pass succeeded
    }
    succ.Set(c);
    prefix_end_of[c] = prefix_end;
    suffix_start_of[c] = suffix_start;
  }

  // Collect bindings for designated-containing children from every data
  // child inside some succeeding class's validity window. One un-rolled-back
  // rerun per (k, child) covers every class wanting it; the rerun's appends
  // come out masked by its own success mask, which the probe already proved
  // covers each wanting class.
  for (size_t k = 0; k < K; ++k) {
    if (!resolved_[pchildren[k]].contains_designated) continue;
    for (size_t cand = 0; cand < M; ++cand) {
      ClassMask want;
      for (size_t c = 0; c < cursor_.num_classes(); ++c) {
        if (!succ.Test(c)) continue;
        size_t lo = k == 0 ? 0 : prefix_end_of[c][k - 1] + 1;
        size_t hi = k + 1 == K ? M : suffix_start_of[c][k + 1];  // exclusive
        if (cand >= lo && cand < hi) want.Set(c);
      }
      if (want.none()) continue;
      SECXML_ASSIGN_OR_RETURN(ClassMask fm, feasible(k, cand));
      want &= fm;
      if (want.none()) continue;
      SECXML_ASSIGN_OR_RETURN(
          ClassMask again,
          Npm(pchildren[k], data[cand].node, data[cand].rec, want, match));
      (void)again;
    }
  }
  return succ;
}

Result<ClassMask> MultiSubjectMatcher::Npm(int pnode, NodeId sroot,
                                           const NokRecord& srec,
                                           const ClassMask& live,
                                           BatchFragmentMatch* match) {
  const ResolvedPattern& pat = resolved_[pnode];
  // Mark this frame's binding positions on the shared stack; the frame exit
  // narrows everything appended here to the frame's success mask (the mask
  // analogue of the per-subject rollback).
  const size_t nb = match->bindings.size();
  const size_t base = mark_stack_.size();
  for (size_t i = 0; i < nb; ++i) {
    mark_stack_.push_back(match->bindings[i].size());
  }
  if (pat.designated_slot >= 0) {
    match->bindings[pat.designated_slot].push_back(
        {sroot, sroot + srec.subtree_size, live});
  }
  if (options_.ordered_siblings && !pat.children->empty()) {
    SECXML_ASSIGN_OR_RETURN(
        ClassMask ok,
        MatchChildrenOrdered(*pat.children, sroot, srec, live, match));
    NarrowAppended(match, mark_stack_, base, ok);
    mark_stack_.resize(base);
    return ok;
  }

  const std::vector<int>& pchildren = *pat.children;
  // satisfied[i]: classes (within live) that have satisfied pattern child i.
  std::vector<ClassMask> satisfied(pchildren.size());
  bool has_collectors = false;
  for (int s : pchildren) has_collectors |= resolved_[s].contains_designated;
  if (!pchildren.empty()) {
    MultiSubjectCursor::ChildWalk walk(&cursor_, sroot, srec, live);
    NodeId u = kInvalidNode;
    NokRecord urec;
    ClassMask amask;
    for (;;) {
      if (!has_collectors) {
        // Stop once every live class has satisfied every pattern child —
        // the batch form of the per-subject early exit. Classes done
        // earlier simply stop contributing want bits while the walk serves
        // the rest.
        ClassMask all_sat = live;
        for (ClassMask s : satisfied) all_sat &= s;
        if (all_sat == live) break;
      }
      SECXML_ASSIGN_OR_RETURN(bool more, walk.Next(&u, &urec, &amask));
      if (!more) break;
      if (amask.none()) continue;
      // Algorithm 1 lines 7-11, mask-valued: try every pattern child some
      // class that can access u still wants (unsatisfied, or a designated
      // collector that keeps matching).
      for (size_t i = 0; i < pchildren.size(); ++i) {
        int s = pchildren[i];
        ClassMask want = resolved_[s].contains_designated
                             ? amask
                             : amask.AndNot(satisfied[i]);
        if (want.none()) continue;
        if (!TagValueMatches(resolved_[s], urec)) continue;
        SECXML_ASSIGN_OR_RETURN(ClassMask ok, Npm(s, u, urec, want, match));
        satisfied[i] |= ok;
      }
    }
  }

  ClassMask ok_mask = live;
  for (ClassMask s : satisfied) ok_mask &= s;
  // Algorithm 1 lines 14-16, mask-valued: classes that failed the subtree
  // lose their bits on everything appended here (including this node's own
  // designated binding).
  NarrowAppended(match, mark_stack_, base, ok_mask);
  mark_stack_.resize(base);
  return ok_mask;
}

Status MultiSubjectMatcher::MatchFragment(const QueryFragment& fragment,
                                          const std::vector<int>& designated,
                                          std::vector<BatchFragmentMatch>* out) {
  out->clear();
  SECXML_RETURN_NOT_OK(fragment.tree.Validate());
  NokStore* nok = store_->nok();

  // The mask tables are a per-evaluation snapshot, shared by every fragment
  // of the query: the evaluation's SnapshotPin holds one epoch throughout,
  // so concurrent commits cannot change what the tables describe.
  if (!attached_) {
    SECXML_RETURN_NOT_OK(cursor_.Attach());
    attached_ = true;
  }
  // The guard ends the scan on every exit, errors included, so the
  // cursor's held page pin never outlives this call.
  ScopedScan<MultiSubjectCursor> scan(&cursor_);
  mark_stack_.clear();

  // Resolve pattern tags once (identical to NokMatcher).
  resolved_.clear();
  resolved_.resize(fragment.tree.nodes.size());
  for (size_t i = 0; i < fragment.tree.nodes.size(); ++i) {
    const PatternNode& pn = fragment.tree.nodes[i];
    ResolvedPattern& rp = resolved_[i];
    rp.wildcard = pn.tag == "*";
    rp.tag = rp.wildcard ? kInvalidTag : nok->tags().Lookup(pn.tag);
    rp.has_value = pn.has_value;
    rp.value = &pn.value;
    rp.children = &pn.children;
  }
  for (size_t d = 0; d < designated.size(); ++d) {
    if (designated[d] < 0 ||
        designated[d] >= static_cast<int>(resolved_.size())) {
      return Status::InvalidArgument("designated node out of range");
    }
    resolved_[designated[d]].designated_slot = static_cast<int>(d);
  }
  for (size_t i = resolved_.size(); i-- > 0;) {
    ResolvedPattern& rp = resolved_[i];
    rp.contains_designated = rp.designated_slot >= 0;
    for (int c : fragment.tree.nodes[i].children) {
      rp.contains_designated |= resolved_[c].contains_designated;
    }
  }

  // Candidate roots come from the tag index (or the document root), so one
  // candidate stream serves the whole batch. The options' candidate window
  // restricts which roots this matcher owns (sharded scatter; see
  // NokMatcher::MatchFragment).
  const NodeId cbegin = options_.candidate_begin;
  const NodeId cend = std::min<NodeId>(options_.candidate_end,
                                       static_cast<NodeId>(nok->num_nodes()));
  std::vector<NodeId> candidates;
  if (fragment.root_anchored) {
    if (cbegin == 0 && cend > 0) candidates.push_back(0);
  } else if (resolved_[0].wildcard) {
    for (NodeId n = cbegin; n < cend; ++n) candidates.push_back(n);
  } else if (resolved_[0].tag != kInvalidTag) {
    candidates = nok->Postings(resolved_[0].tag);
    candidates.erase(
        std::lower_bound(candidates.begin(), candidates.end(), cend),
        candidates.end());
    candidates.erase(candidates.begin(),
                     std::lower_bound(candidates.begin(), candidates.end(),
                                      cbegin));
  }

  const ClassMask full = cursor_.FullMask();
  for (NodeId cand : candidates) {
    NokRecord rec;
    ClassMask amask;
    SECXML_ASSIGN_OR_RETURN(
        bool fetched, cursor_.FetchCandidate(cand, full, &rec, &amask));
    if (!fetched) continue;  // page dead for every class, never loaded
    if (!TagValueMatches(resolved_[0], rec)) continue;
    if (amask.none()) continue;  // Algorithm 1 pre-condition, batch-wide
    BatchFragmentMatch match;
    match.root = cand;
    match.root_end = cand + rec.subtree_size;
    match.bindings.resize(designated.size());
    SECXML_ASSIGN_OR_RETURN(ClassMask ok, Npm(0, cand, rec, amask, &match));
    if (ok.any()) {
      match.ok = ok;
      out->push_back(std::move(match));
    }
  }
  return Status::OK();
}

}  // namespace secxml
