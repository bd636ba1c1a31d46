#ifndef SECXML_QUERY_BATCH_MATCHER_H_
#define SECXML_QUERY_BATCH_MATCHER_H_

#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/secure_store.h"
#include "exec/exec_stats.h"
#include "exec/multi_cursor.h"
#include "query/decomposer.h"

namespace secxml {

/// A designated-node binding annotated with the classes it belongs to: bit
/// k set means a one-class run for class k would have recorded this binding
/// at this position.
struct MaskedBinding {
  NodeId node = 0;
  NodeId end = 0;
  ClassMask mask;
};

/// One data root at which the fragment matches for at least one class.
/// Projecting bit k (the matches with bit k in `ok`, their bindings
/// filtered to bit k, orders preserved) gives class k's own match list:
/// Algorithm 1 run for class k's representative alone. The mask join
/// (query/batch_join.h) consumes the masks without projecting.
struct BatchFragmentMatch {
  NodeId root = 0;
  NodeId root_end = 0;
  /// Classes for which the fragment matches at this root.
  ClassMask ok;
  /// Parallel to the designated list passed to MatchFragment; bindings in
  /// discovery order, each carrying its class mask.
  std::vector<std::vector<MaskedBinding>> bindings;
};

/// Navigational NoK pattern matcher (paper Algorithm 1), run once for a
/// whole batch of visibility equivalence classes; a single subject is a
/// one-class batch. The unchecked mode is the original NoK matching; the
/// secure mode is ε-NoK: each child is ACCESS-checked as soon as its record
/// is loaded (no extra I/O, since the DOL code lives in the same page) and
/// recursion into children no live class can access is skipped. With
/// `page_skip` on, runs of children inside pages whose in-memory header
/// proves them wholly inaccessible to every live class are skipped without
/// loading those pages (Section 3.3).
///
/// Every accessibility test yields a mask of per-class bits (one table
/// load via MultiSubjectCursor) and every success/rollback decision becomes
/// a mask operation:
///
///  - a recursion frame carries the live mask of classes still pursuing the
///    current subtree; bindings are appended with that mask and narrowed to
///    the frame's success mask on exit (mask-AND replaces Algorithm 1's
///    rollback — a class that fails the subtree simply loses its bit);
///  - a pattern child's retirement (satisfied, not a designated collector)
///    is per class: the recursion runs if *any* live class still wants it,
///    and classes that already retired the child contribute no mask bits,
///    so their bindings are untouched;
///  - pages are skipped only when dead for every live class, and children
///    on pages dead for a strict subset carry zeroed access bits for those
///    classes, which class k's projection cannot tell from a page skip.
///
/// The equivalence invariant (pinned by tests/query/batch_eval_test.cc
/// against the reference evaluator and against one-class runs): for every
/// class k in a frame's live mask, bit k of the frame's result and the
/// subsequence of bindings carrying bit k equal a one-class run's return
/// and retained appends for class k's representative.
class MultiSubjectMatcher {
 public:
  struct Options {
    /// Off = the original NoK matching (AccessSemantics::kNone): the cursor
    /// decodes no code and every record is accessible.
    bool secure = true;
    bool page_skip = true;
    /// Ordered pattern trees (the paper's footnote: "we use ordered pattern
    /// tree in real experiments"): sibling pattern nodes must bind to data
    /// children in strictly ascending document order. Matching remains
    /// complete — per-class feasibility windows are computed by forward/
    /// backward greedy passes over batch-memoized probes, and designated
    /// bindings are collected from every data child that participates in
    /// some valid ordered assignment.
    bool ordered_siblings = false;
    /// Candidate-root restriction for window-parallel scatter (DESIGN.md
    /// §13): only fragment candidates with candidate_begin <= root <
    /// candidate_end are matched. The walk below an admitted candidate is
    /// NOT restricted (a match may span past candidate_end), so a
    /// coordinator that tiles [0, num_nodes) with windows reproduces the
    /// unrestricted match stream exactly, each match found by exactly one
    /// window.
    NodeId candidate_begin = 0;
    NodeId candidate_end = kInvalidNode;
  };

  /// `class_reps` holds one representative subject per equivalence class
  /// (at most kMaxBatchClasses; callers chunk wider batches).
  MultiSubjectMatcher(SecureStore* store,
                      const std::vector<SubjectId>& class_reps,
                      const Options& options)
      : store_(store),
        options_(options),
        cursor_(store, class_reps,
                MultiSubjectCursor::Options{options.secure,
                                            options.page_skip}) {}

  /// Finds all roots where `fragment` matches for at least one class, in
  /// ascending root order. `designated` lists fragment-local pattern node
  /// indices whose bindings must be recorded (join sources and/or the
  /// returning node). The fragment root binding must itself be accessible
  /// to a class for the class to match there (Algorithm 1's pre-condition).
  Status MatchFragment(const QueryFragment& fragment,
                       const std::vector<int>& designated,
                       std::vector<BatchFragmentMatch>* out);

  /// Cursor counters accumulated across every MatchFragment call (the
  /// chunk's shared scan-operator contribution).
  const ExecStats& exec_stats() const { return cursor_.stats(); }

  size_t num_classes() const { return cursor_.num_classes(); }

 private:
  /// Resolved per-pattern-node match state for the current fragment.
  struct ResolvedPattern {
    TagId tag = kInvalidTag;
    bool wildcard = false;
    bool has_value = false;
    const std::string* value = nullptr;
    int designated_slot = -1;  // index into the match's bindings or -1
    /// True if this pattern node's subtree contains a designated node. Such
    /// children are not retired after their first successful match
    /// (Algorithm 1 line 11 removes them): they keep matching later data
    /// children so that *all* bindings of designated nodes are collected,
    /// which the join and the result set require.
    bool contains_designated = false;
    const std::vector<int>* children = nullptr;
  };

  bool TagValueMatches(const ResolvedPattern& p, const NokRecord& rec) const;

  /// Mask-valued Algorithm 1: `live` is the set of classes pursuing this
  /// binding of `pnode` to `sroot`. Returns the subset for which the whole
  /// pattern subtree matches; bindings appended by the call carry masks
  /// already narrowed to that result.
  Result<ClassMask> Npm(int pnode, NodeId sroot, const NokRecord& srec,
                        const ClassMask& live, BatchFragmentMatch* match);

  /// Ordered-sibling variant: per-class greedy feasibility windows over the
  /// shared (batch-checked) data-child list, with batch-memoized probes.
  Result<ClassMask> MatchChildrenOrdered(const std::vector<int>& pchildren,
                                         NodeId sroot, const NokRecord& srec,
                                         const ClassMask& live,
                                         BatchFragmentMatch* match);

  SecureStore* store_;
  Options options_;
  MultiSubjectCursor cursor_;
  bool attached_ = false;
  std::vector<ResolvedPattern> resolved_;
  /// Reusable rollback-marks stack: frames of per-slot binding sizes for
  /// frame-exit mask narrowing and for the ordered path's physically
  /// rolled-back feasibility probes. Npm recurses once per pattern-data
  /// binding attempt, so the frames share one vector instead of allocating
  /// per recursion.
  std::vector<size_t> mark_stack_;
};

}  // namespace secxml

#endif  // SECXML_QUERY_BATCH_MATCHER_H_
