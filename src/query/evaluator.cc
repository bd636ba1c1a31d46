#include "query/evaluator.h"

#include <algorithm>
#include <memory>

#include "query/structural_join.h"
#include "query/xpath_parser.h"

namespace secxml {

Status PrepareQuery(const PatternTree& pattern, PreparedQuery* out) {
  *out = PreparedQuery();
  SECXML_RETURN_NOT_OK(Decompose(pattern, &out->query));
  const size_t nf = out->query.fragments.size();

  out->children.resize(nf);
  for (size_t f = 1; f < nf; ++f) {
    out->children[out->query.fragments[f].parent_fragment].push_back(
        static_cast<int>(f));
  }

  out->designated.resize(nf);
  out->child_slot.resize(nf);
  out->ret_slot.assign(nf, -1);
  for (size_t f = 0; f < nf; ++f) {
    auto slot_for = [&](int local) {
      auto& des = out->designated[f];
      for (size_t i = 0; i < des.size(); ++i) {
        if (des[i] == local) return static_cast<int>(i);
      }
      des.push_back(local);
      return static_cast<int>(des.size() - 1);
    };
    for (int c : out->children[f]) {
      out->child_slot[f].push_back(
          slot_for(out->query.fragments[c].source_in_parent));
    }
    if (out->query.fragments[f].returning_local >= 0) {
      out->ret_slot[f] = slot_for(out->query.fragments[f].returning_local);
    }
  }
  return Status::OK();
}

void FilterMatchesVisible(const std::vector<NodeInterval>& hidden,
                          std::vector<std::vector<FragmentMatch>>* matches,
                          ExecStats* stats) {
  // A fragment root inside a hidden subtree cannot contribute (every other
  // bound node in the fragment is then visible too, since fragments are
  // child-edge chains of accessible nodes). Surviving roots map back to
  // matches with one merge pass.
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

void JoinMatches(const PreparedQuery& pq,
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
    // Collect join-source bindings from reachable parent matches.
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
    // the Stack-Tree-Desc semijoin over sorted inputs (match roots ascend),
    // merged back onto the match list.
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

Result<EvalResult> QueryEvaluator::EvaluateXPath(std::string_view xpath,
                                                 const EvalOptions& options) {
  PatternTree pattern;
  SECXML_RETURN_NOT_OK(ParseXPath(xpath, &pattern));
  return Evaluate(pattern, options);
}

Result<EvalResult> QueryEvaluator::Evaluate(const PatternTree& pattern,
                                            const EvalOptions& options) {
  PreparedQuery pq;
  SECXML_RETURN_NOT_OK(PrepareQuery(pattern, &pq));
  return EvaluatePrepared(pq, options);
}

Result<EvalResult> QueryEvaluator::EvaluatePrepared(
    const PreparedQuery& pq, const EvalOptions& options) {
  // Pin one epoch for the whole evaluation: every snapshot-dependent read
  // below (codebook column, page directory, hidden intervals)
  // resolves against this snapshot even if updates commit concurrently.
  SecureStore::SnapshotPin pin(store_);

  const size_t nf = pq.query.fragments.size();

  // Match every fragment.
  NokMatcher::Options mopts;
  mopts.secure = options.semantics != AccessSemantics::kNone;
  mopts.subject = options.subject;
  mopts.page_skip = options.page_skip;
  mopts.ordered_siblings = options.ordered_siblings;
  NokMatcher matcher(store_, mopts);
  std::vector<std::vector<FragmentMatch>> matches(nf);
  EvalResult result;
  for (size_t f = 0; f < nf; ++f) {
    SECXML_RETURN_NOT_OK(matcher.MatchFragment(pq.query.fragments[f],
                                               pq.designated[f], &matches[f]));
    result.fragment_matches += matches[f].size();
  }

  // The scan operator is done once every fragment is matched; its counters
  // are the matcher's cursor stats. The evaluation's snapshot pin is
  // attributed here (one per query).
  ExecStats scan_stats = matcher.exec_stats();
  scan_stats.epoch_pins = 1;
  result.operators.push_back({"scan", scan_stats});

  // Visibility operator (view semantics): the hidden-interval sweep's own
  // page I/O is attributed here on the query that computes it; later
  // queries hit the store's cache.
  if (options.semantics == AccessSemantics::kView) {
    ExecStats vis_stats;
    SECXML_ASSIGN_OR_RETURN(
        std::shared_ptr<const std::vector<NodeInterval>> hidden,
        store_->HiddenSubtreeIntervals(options.subject, &vis_stats));
    FilterMatchesVisible(*hidden, &matches, &vis_stats);
    result.operators.push_back({"visibility", vis_stats});
  }

  ExecStats join_stats;
  JoinMatches(pq, matches, &result.answers, &join_stats);
  result.operators.push_back({"join", join_stats});
  result.exec = RollUp(result.operators);
  return result;
}

}  // namespace secxml
