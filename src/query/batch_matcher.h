#ifndef SECXML_QUERY_BATCH_MATCHER_H_
#define SECXML_QUERY_BATCH_MATCHER_H_

#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/secure_store.h"
#include "exec/exec_stats.h"
#include "exec/multi_cursor.h"
#include "query/decomposer.h"
#include "query/matcher.h"

namespace secxml {

/// A designated-node binding annotated with the classes it belongs to: bit
/// k set means class k's per-subject evaluation would have recorded this
/// binding at this position.
struct MaskedBinding {
  NodeId node = 0;
  NodeId end = 0;
  ClassMask mask;
};

/// One data root at which the fragment matches for at least one class.
/// Projecting bit k (the matches with bit k in `ok`, their bindings
/// filtered to bit k, orders preserved) reproduces, element for element,
/// the FragmentMatch list the per-subject NokMatcher emits for class k's
/// representative; the mask join (query/batch_join.h) consumes the masks
/// without projecting.
struct BatchFragmentMatch {
  NodeId root = 0;
  NodeId root_end = 0;
  /// Classes for which the fragment matches at this root.
  ClassMask ok;
  /// Parallel to the designated list passed to MatchFragment; bindings in
  /// discovery order, each carrying its class mask.
  std::vector<std::vector<MaskedBinding>> bindings;
};

/// Word-parallel multi-subject NoK pattern matcher: Algorithm 1 run once
/// for a whole batch of visibility equivalence classes. Control flow follows
/// the per-subject NokMatcher exactly, but every accessibility test yields a
/// wide mask of per-class bits (one AND via MultiSubjectCursor) and every
/// success/rollback decision becomes a mask operation (frame-exit narrowing
/// runs through the dispatched SIMD kernels in exec/mask_ops.h):
///
///  - a recursion frame carries the live mask of classes still pursuing the
///    current subtree; bindings are appended with that mask and narrowed to
///    the frame's success mask on exit (mask-AND replaces the per-subject
///    rollback — a class that fails the subtree simply loses its bit);
///  - a pattern child's retirement (satisfied, not a designated collector)
///    is per class: the recursion runs if *any* live class still wants it,
///    and classes that already retired the child contribute no mask bits,
///    so their bindings are untouched — exactly the per-subject skip;
///  - pages are skipped only when dead for every live class, and children
///    on pages dead for a strict subset carry zeroed access bits for those
///    classes, which the per-class projection cannot distinguish from the
///    per-subject page skip.
///
/// The equivalence invariant (pinned by tests/query/batch_eval_test.cc):
/// for every class k in a frame's live mask, bit k of the frame's result
/// and the subsequence of bindings carrying bit k equal the per-subject
/// matcher's return and retained appends for class k's representative.
class MultiSubjectMatcher {
 public:
  struct Options {
    bool page_skip = true;
    /// Ordered pattern trees (see NokMatcher::Options::ordered_siblings);
    /// feasibility probes are memoized per (pattern child, data child) and
    /// answered for the whole batch at once.
    bool ordered_siblings = false;
    /// Candidate-root window for sharded scatter, identical contract to
    /// NokMatcher::Options: only roots in [candidate_begin, candidate_end)
    /// start a match; the walk below an admitted root is unrestricted.
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
                MultiSubjectCursor::Options{options.page_skip}) {}

  /// Finds all roots where `fragment` matches for at least one class; see
  /// NokMatcher::MatchFragment for the per-subject contract this batches.
  Status MatchFragment(const QueryFragment& fragment,
                       const std::vector<int>& designated,
                       std::vector<BatchFragmentMatch>* out);

  /// Cursor counters accumulated across every MatchFragment call (the
  /// chunk's shared scan-operator contribution).
  const ExecStats& exec_stats() const { return cursor_.stats(); }

  size_t num_classes() const { return cursor_.num_classes(); }

 private:
  /// Per-pattern-node match state, identical to NokMatcher's resolution.
  struct ResolvedPattern {
    TagId tag = kInvalidTag;
    bool wildcard = false;
    bool has_value = false;
    const std::string* value = nullptr;
    int designated_slot = -1;
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
  /// Reusable rollback-marks stack, same shape as NokMatcher's: frames of
  /// per-slot binding sizes for frame-exit mask narrowing and for the
  /// ordered path's physically-rolled-back feasibility probes.
  std::vector<size_t> mark_stack_;
};

}  // namespace secxml

#endif  // SECXML_QUERY_BATCH_MATCHER_H_
