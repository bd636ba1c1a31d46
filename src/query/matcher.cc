#include "query/matcher.h"

#include <algorithm>

namespace secxml {

bool NokMatcher::TagValueMatches(const ResolvedPattern& p,
                                 const NokRecord& rec) const {
  if (!p.wildcard) {
    if (p.tag == kInvalidTag || rec.tag != p.tag) return false;
  }
  if (p.has_value && store_->nok()->Value(rec) != *p.value) return false;
  return true;
}

Result<bool> NokMatcher::MatchChildrenOrdered(
    const std::vector<int>& pchildren, NodeId sroot, const NokRecord& srec,
    FragmentMatch* match) {
  // Materialize the accessible data children (inaccessible ones can never
  // participate, per Algorithm 1's pruning; children inside wholly-dead
  // pages are skipped without loading those pages, like the unordered walk).
  struct Child {
    NodeId node;
    NokRecord rec;
  };
  std::vector<Child> data;
  {
    SecureCursor::ChildWalk walk(&cursor_, sroot, srec);
    NodeId u = kInvalidNode;
    NokRecord urec;
    bool accessible = true;
    for (;;) {
      SECXML_ASSIGN_OR_RETURN(bool more, walk.Next(&u, &urec, &accessible));
      if (!more) break;
      if (accessible) data.push_back({u, urec});
    }
  }
  const size_t K = pchildren.size();
  const size_t M = data.size();

  // Memoized feasibility of (pattern child k, data child d); recursive Npm
  // calls are always rolled back here — bindings are collected afterwards,
  // once validity windows are known.
  std::vector<int8_t> memo(K * M, -1);
  auto feasible = [&](size_t k, size_t d) -> Result<bool> {
    int8_t& slot = memo[k * M + d];
    if (slot >= 0) return slot == 1;
    const ResolvedPattern& rp = resolved_[pchildren[k]];
    bool ok = false;
    if (TagValueMatches(rp, data[d].rec)) {
      // Feasibility probes always roll back; marks live on the shared
      // stack rather than a fresh vector per probe.
      const size_t nb = match->bindings.size();
      const size_t base = mark_stack_.size();
      for (size_t i = 0; i < nb; ++i) {
        mark_stack_.push_back(match->bindings[i].size());
      }
      SECXML_ASSIGN_OR_RETURN(
          ok, Npm(pchildren[k], data[d].node, data[d].rec, match));
      for (size_t i = 0; i < nb; ++i) {
        match->bindings[i].resize(mark_stack_[base + i]);
      }
      mark_stack_.resize(base);
    }
    slot = ok ? 1 : 0;
    return ok;
  };

  // Forward greedy: earliest completion index of the pattern-child prefix.
  // Greedy earliest-feasible assignment is complete for subsequence
  // matching, so failure here means no ordered assignment exists.
  std::vector<size_t> prefix_end(K);
  size_t d = 0;
  for (size_t k = 0; k < K; ++k) {
    bool found = false;
    for (; d < M; ++d) {
      SECXML_ASSIGN_OR_RETURN(bool ok, feasible(k, d));
      if (ok) {
        prefix_end[k] = d;
        ++d;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }

  // Backward greedy: latest start index of the pattern-child suffix.
  std::vector<size_t> suffix_start(K);
  size_t dl = M;
  for (size_t k = K; k-- > 0;) {
    bool found = false;
    while (dl-- > 0) {
      SECXML_ASSIGN_OR_RETURN(bool ok, feasible(k, dl));
      if (ok) {
        suffix_start[k] = dl;
        found = true;
        break;
      }
    }
    if (!found) return false;  // unreachable: forward pass succeeded
  }

  // Collect bindings for designated-containing children from every data
  // child that participates in some valid ordered assignment: d works for
  // child k iff the prefix before k can finish before d and the suffix
  // after k can start after d.
  for (size_t k = 0; k < K; ++k) {
    if (!resolved_[pchildren[k]].contains_designated) continue;
    size_t lo = k == 0 ? 0 : prefix_end[k - 1] + 1;
    size_t hi = k + 1 == K ? M : suffix_start[k + 1];  // exclusive
    for (size_t cand = lo; cand < hi; ++cand) {
      SECXML_ASSIGN_OR_RETURN(bool ok, feasible(k, cand));
      if (!ok) continue;
      // Re-run without rollback to keep the bindings.
      SECXML_ASSIGN_OR_RETURN(
          bool again,
          Npm(pchildren[k], data[cand].node, data[cand].rec, match));
      (void)again;
    }
  }
  return true;
}

Result<bool> NokMatcher::Npm(int pnode, NodeId sroot, const NokRecord& srec,
                             FragmentMatch* match) {
  const ResolvedPattern& pat = resolved_[pnode];
  // Save rollback marks for designated bindings appended in this subtree.
  // The marks live as a frame on the matcher's shared stack — Npm recurses
  // once per pattern-data binding attempt, and a heap allocation per
  // recursion dominated the ACCESS-check fast path. The frame is popped on
  // every non-error exit; on error the whole fragment match aborts and
  // MatchFragment resets the stack.
  const size_t nb = match->bindings.size();
  const size_t base = mark_stack_.size();
  for (size_t i = 0; i < nb; ++i) {
    mark_stack_.push_back(match->bindings[i].size());
  }
  auto rollback = [&]() {
    for (size_t i = 0; i < nb; ++i) {
      match->bindings[i].resize(mark_stack_[base + i]);
    }
  };
  if (pat.designated_slot >= 0) {
    match->bindings[pat.designated_slot].emplace_back(
        sroot, sroot + srec.subtree_size);
  }
  if (options_.ordered_siblings && !pat.children->empty()) {
    SECXML_ASSIGN_OR_RETURN(
        bool ok, MatchChildrenOrdered(*pat.children, sroot, srec, match));
    if (!ok) rollback();
    mark_stack_.resize(base);
    return ok;
  }

  // S <- all pattern children of pnode (Algorithm 1 line 3). Children whose
  // subtree holds a designated node stay active after matching (collectors),
  // so `satisfied` tracks completion separately from retirement.
  const std::vector<int>& pchildren = *pat.children;
  std::vector<char> satisfied(pchildren.size(), 0);
  size_t unsatisfied = pchildren.size();
  bool has_collectors = false;
  for (int s : pchildren) has_collectors |= resolved_[s].contains_designated;
  if (!pchildren.empty()) {
    // The cursor's child walk owns the ε-NoK mechanics — page verdicts
    // before each page is touched, dead-run jumps, one fetch per page run
    // with each ACCESS check resolved from the held page.
    SecureCursor::ChildWalk walk(&cursor_, sroot, srec);
    NodeId u = kInvalidNode;
    NokRecord urec;
    bool accessible = true;
    while (unsatisfied > 0 || has_collectors) {
      SECXML_ASSIGN_OR_RETURN(bool more, walk.Next(&u, &urec, &accessible));
      if (!more) break;
      if (accessible) {
        // Algorithm 1 lines 7-11: try every active pattern child whose
        // tag/value constraints u satisfies.
        for (size_t i = 0; i < pchildren.size(); ++i) {
          int s = pchildren[i];
          if (satisfied[i] && !resolved_[s].contains_designated) continue;
          if (!TagValueMatches(resolved_[s], urec)) continue;
          SECXML_ASSIGN_OR_RETURN(bool ok, Npm(s, u, urec, match));
          if (ok && !satisfied[i]) {
            satisfied[i] = 1;
            --unsatisfied;
          }
        }
      }
    }
  }

  if (unsatisfied > 0) {
    // Algorithm 1 lines 14-16: roll back this subtree's bindings.
    rollback();
    mark_stack_.resize(base);
    return false;
  }
  mark_stack_.resize(base);
  return true;
}

Status NokMatcher::MatchFragment(const QueryFragment& fragment,
                                 const std::vector<int>& designated,
                                 std::vector<FragmentMatch>* out) {
  out->clear();
  SECXML_RETURN_NOT_OK(fragment.tree.Validate());
  NokStore* nok = store_->nok();

  // Snapshot the subject's column for this evaluation and open the
  // cursor's scan (fresh skipped-page dedup map); the guard ends it on
  // every exit, errors included, so the cursor's held page pin never
  // outlives this call. The rollback-marks stack may hold stale frames
  // after an aborted earlier call.
  SECXML_RETURN_NOT_OK(cursor_.Attach());
  ScopedScan<SecureCursor> scan(&cursor_);
  mark_stack_.clear();

  // Resolve pattern tags once.
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
  // contains_designated is transitive toward the root; pattern nodes are in
  // preorder, so a reverse sweep propagates child flags to parents.
  for (size_t i = resolved_.size(); i-- > 0;) {
    ResolvedPattern& rp = resolved_[i];
    rp.contains_designated = rp.designated_slot >= 0;
    for (int c : fragment.tree.nodes[i].children) {
      rp.contains_designated |= resolved_[c].contains_designated;
    }
  }

  // Candidate roots: the document root when anchored, else the tag index
  // postings (Section 4.1: B+-trees on tag names start the matching). The
  // options' candidate window restricts which roots this matcher owns
  // (sharded scatter); every source below emits ascending ids, so the
  // window is a contiguous slice of the stream.
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

  for (NodeId cand : candidates) {
    NokRecord rec;
    bool accessible = true;
    SECXML_ASSIGN_OR_RETURN(bool fetched,
                            cursor_.FetchCandidate(cand, &rec, &accessible));
    if (!fetched) continue;  // wholly-dead page, skipped without loading
    if (!TagValueMatches(resolved_[0], rec)) continue;
    if (!accessible) continue;  // Algorithm 1 pre-condition
    FragmentMatch match;
    match.root = cand;
    match.root_end = cand + rec.subtree_size;
    match.bindings.resize(designated.size());
    SECXML_ASSIGN_OR_RETURN(bool ok, Npm(0, cand, rec, &match));
    if (ok) out->push_back(std::move(match));
  }
  return Status::OK();
}

}  // namespace secxml
