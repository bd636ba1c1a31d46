#ifndef SECXML_QUERY_MATCHER_H_
#define SECXML_QUERY_MATCHER_H_

#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/secure_store.h"
#include "exec/exec_stats.h"
#include "exec/secure_cursor.h"
#include "query/decomposer.h"

namespace secxml {

/// One successful match of a NoK fragment at a data root.
struct FragmentMatch {
  /// Data node bound to the fragment root, with its subtree end.
  NodeId root = 0;
  NodeId root_end = 0;
  /// Bindings for each designated pattern node (parallel to the designated
  /// list passed to MatchFragment): every data node bound to it in this
  /// match, as (node, subtree end) pairs in discovery order.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> bindings;
};

/// Navigational NoK pattern matcher (paper Algorithm 1). The non-secure
/// mode is the original NoK matching; the secure mode is ε-NoK: each child
/// is ACCESS-checked as soon as its record is loaded (no extra I/O, since
/// the DOL code lives in the same page) and recursion into inaccessible
/// children is skipped. With `page_skip` on, runs of children inside pages
/// whose in-memory header proves them wholly inaccessible are skipped
/// without loading those pages at all (Section 3.3).
///
/// All record access and every ACCESS check goes through the matcher's
/// SecureCursor (src/exec) — the matcher owns Algorithm 1's control flow,
/// the cursor owns the fetch/decode/check/skip pipeline and its ExecStats.
class NokMatcher {
 public:
  struct Options {
    bool secure = false;
    SubjectId subject = 0;
    bool page_skip = true;
    /// Ordered pattern trees (the paper's footnote: "we use ordered pattern
    /// tree in real experiments"): sibling pattern nodes must bind to data
    /// children in strictly ascending document order. Matching remains
    /// complete — feasibility windows are computed by forward/backward
    /// greedy passes, and designated bindings are collected from every
    /// data child that participates in some valid ordered assignment.
    bool ordered_siblings = false;
    /// Candidate-root restriction for sharded scatter (DESIGN.md §13): only
    /// fragment candidates with candidate_begin <= root < candidate_end are
    /// matched. The walk below an admitted candidate is NOT restricted (a
    /// match may span past candidate_end), so a coordinator that tiles
    /// [0, num_nodes) with windows reproduces the unrestricted match
    /// stream exactly, each match found by exactly one window.
    NodeId candidate_begin = 0;
    NodeId candidate_end = kInvalidNode;
  };

  NokMatcher(SecureStore* store, const Options& options)
      : store_(store),
        options_(options),
        cursor_(store, SecureCursor::Options{options.secure, options.subject,
                                             options.page_skip}) {}

  /// Finds all matches of `fragment` in the document. `designated` lists
  /// fragment-local pattern node indices whose bindings must be recorded
  /// (join sources and/or the returning node). In secure mode the fragment
  /// root binding must itself be accessible (Algorithm 1's pre-condition).
  Status MatchFragment(const QueryFragment& fragment,
                       const std::vector<int>& designated,
                       std::vector<FragmentMatch>* out);

  /// Cursor counters accumulated across every MatchFragment call on this
  /// matcher (the evaluator constructs one matcher per query, so this is
  /// the query's scan-operator contribution).
  const ExecStats& exec_stats() const { return cursor_.stats(); }

 private:
  /// Resolved per-pattern-node match state for the current fragment.
  struct ResolvedPattern {
    TagId tag = kInvalidTag;  // kInvalidTag + !wildcard => cannot match
    bool wildcard = false;
    bool has_value = false;
    const std::string* value = nullptr;
    int designated_slot = -1;  // index into FragmentMatch::bindings or -1
    /// True if this pattern node's subtree contains a designated node. Such
    /// children are not retired after their first successful match
    /// (Algorithm 1 line 11 removes them): they keep matching later data
    /// children so that *all* bindings of designated nodes are collected,
    /// which the join and the result set require.
    bool contains_designated = false;
    const std::vector<int>* children = nullptr;
  };

  bool TagValueMatches(const ResolvedPattern& p, const NokRecord& rec) const;

  /// Algorithm 1 (ε-)NPM. `pnode` is the fragment-local pattern node already
  /// bound to data node `sroot` (record `srec`); returns whether the whole
  /// pattern subtree matches, appending designated bindings to `match`
  /// (rolled back on failure).
  Result<bool> Npm(int pnode, NodeId sroot, const NokRecord& srec,
                   FragmentMatch* match);

  /// Ordered-sibling variant of the children-matching loop: pattern
  /// children must bind to strictly ascending data children.
  Result<bool> MatchChildrenOrdered(const std::vector<int>& pchildren,
                                    NodeId sroot, const NokRecord& srec,
                                    FragmentMatch* match);

  SecureStore* store_;
  Options options_;
  SecureCursor cursor_;
  std::vector<ResolvedPattern> resolved_;
  /// Reusable rollback-marks stack: Npm and the ordered-children feasibility
  /// probe push one frame of per-binding sizes instead of allocating a fresh
  /// vector per recursion.
  std::vector<size_t> mark_stack_;
};

}  // namespace secxml

#endif  // SECXML_QUERY_MATCHER_H_
