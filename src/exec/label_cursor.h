#ifndef SECXML_EXEC_LABEL_CURSOR_H_
#define SECXML_EXEC_LABEL_CURSOR_H_

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "core/dol_labeling.h"
#include "exec/exec_stats.h"

namespace secxml {

/// Streaming counterpart of the paged scan cursor (MultiSubjectCursor) for
/// consumers that see nodes in document order against a *logical* DOL (no
/// pages): the secure stream filter, and any one-pass algorithm over a SAX
/// stream (paper Section 7).
///
/// The cursor keeps the current run's code by advancing a monotone cursor
/// over the labeling's transition list — O(1) amortized per node versus the
/// O(log T) binary search of DolLabeling::CodeAt — and, like a one-class
/// scan cursor, checks access against the subject's codebook column
/// (Codebook::Column, taken at construction), so the inner ACCESS check is
/// one bit test.
///
/// Nodes passed to Accessible must be non-decreasing; skipping ahead (e.g.
/// past a suppressed subtree whose nodes the caller never checks) is fine.
/// The caller is responsible for the node-range check against
/// `labeling->num_nodes()`, as the stream filter already does.
class LabelStreamCursor {
 public:
  LabelStreamCursor() = default;

  /// `labeling` must outlive the cursor and satisfy DolLabeling's
  /// invariants (first transition at node 0).
  LabelStreamCursor(const DolLabeling* labeling, SubjectId subject)
      : labeling_(labeling), column_(labeling->codebook().Column(subject)) {}

  /// Accessibility of `node` for the subject. One amortized transition-list
  /// advance plus one bit test (an out-of-range code denies).
  bool Accessible(NodeId node) {
    const std::vector<DolEntry>& ts = labeling_->transitions();
    while (next_transition_ < ts.size() &&
           ts[next_transition_].node <= node) {
      code_ = ts[next_transition_].code;
      ++next_transition_;
    }
    ++stats_.nodes_scanned;
    ++stats_.codes_checked;
    return code_ < column_.size() && column_.GetUnchecked(code_);
  }

  const ExecStats& stats() const { return stats_; }

 private:
  const DolLabeling* labeling_ = nullptr;
  /// The subject's codebook column (fails closed: an unknown subject's
  /// column denies every code).
  BitVector column_;
  /// Monotone cursor over the transition list; `code_` is the code in
  /// effect for the last node consumed.
  size_t next_transition_ = 0;
  AccessCodeId code_ = 0;
  ExecStats stats_;
};

}  // namespace secxml

#endif  // SECXML_EXEC_LABEL_CURSOR_H_
