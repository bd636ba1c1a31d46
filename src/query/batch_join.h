#ifndef SECXML_QUERY_BATCH_JOIN_H_
#define SECXML_QUERY_BATCH_JOIN_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/accessibility_map.h"
#include "exec/exec_stats.h"
#include "query/batch_matcher.h"
#include "query/evaluator.h"

namespace secxml {

/// Every class's outcome of one chunk's mask join.
struct BatchJoinResult {
  /// answers[k]: class k's answers, ascending and duplicate-free.
  std::vector<std::vector<NodeId>> answers;
  /// fragment_matches[k]: matches carrying class k's `ok` bit, counted
  /// before the visibility filter — EvalResult::fragment_matches, and the
  /// roots class k's visibility filter checks.
  std::vector<size_t> fragment_matches;
  /// The join's work, done once for every class (nodes_scanned counts the
  /// bindings and roots each sweep consumed).
  ExecStats join;
};

/// The mask-valued ε-STD join (Section 4.2) of one batch chunk — every
/// evaluation's one join, a single subject being a one-class chunk: reads
/// the chunk's BatchFragmentMatch lists once and answers every class
/// together. For every class k < `width` the result equals projecting bit k
/// out of `matches` (matches whose `ok` has bit k, bindings filtered to bit
/// k), dropping the matches whose root lies in one of class k's hidden
/// intervals, then the bottom-up validity and top-down reachability
/// semijoins of the (ε-)STD join — answers and fragment_matches alike
/// (tests/query/join_oracle.h is that per-class pipeline).
///
/// `hidden` is empty under binding semantics; under view semantics it holds
/// one sorted, disjoint interval list per class. Match roots must ascend
/// within each fragment (the matcher emits document order, and the
/// coordinator's merge proves it).
///
/// Exactness rests on bindings being subtree intervals of one document:
/// any two are nested or disjoint, so one stack sweep in node order
/// carries every class's bit at once.
///  - Visibility clears bit k of each match whose root lies in one of
///    class k's hidden intervals.
///  - Bottom-up validity: a binding (node, end) connects for its mask AND
///    the OR of the valid masks of child roots r with node < r < end
///    (strict: a child root equal to the binding's node does not count).
///  - Top-down reach: a stack of open join sources with cumulative masks
///    answers which classes reach each child root.
///  - Answers: returning bindings masked by their match's reach, merged by
///    node and fanned out by class in ascending order.
/// Costs O((B log B + R) × mask words) for B bindings and R roots (the
/// sorts are skipped when bindings already ascend), plus the answers.
BatchJoinResult JoinBatchMatches(
    const PreparedQuery& pq,
    const std::vector<std::vector<BatchFragmentMatch>>& matches, size_t width,
    std::span<const std::vector<NodeInterval>* const> hidden);

}  // namespace secxml

#endif  // SECXML_QUERY_BATCH_JOIN_H_
