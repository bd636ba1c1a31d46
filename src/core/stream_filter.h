#ifndef SECXML_CORE_STREAM_FILTER_H_
#define SECXML_CORE_STREAM_FILTER_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "core/dol_labeling.h"
#include "exec/exec_stats.h"
#include "exec/label_cursor.h"
#include "xml/sax.h"

namespace secxml {

/// One-pass secure XML dissemination (paper Section 7: the DOL layout makes
/// it "easy to embed into streaming XML data ... many one-pass algorithms on
/// streaming XML data can be made secure").
///
/// The filter consumes a SAX event stream, numbers elements in document
/// order (the same numbering DOL labels), and re-emits only the content
/// visible to `subject` under the Gabillon-Bruno view semantics: an
/// inaccessible element swallows its entire subtree. Attribute pseudo
/// elements ("@name") are reconstituted as attributes. Memory use is O(tree
/// depth); the input is never materialized.
///
/// Typical use:
///   SecureStreamFilter filter(&labeling, subject, &output);
///   ParseXmlStream(input_xml, &filter);
class SecureStreamFilter final : public XmlContentHandler {
 public:
  /// `labeling` must cover at least as many nodes as the stream contains
  /// and outlive the filter. Output is appended to `*out`. Per-node checks
  /// run through the exec layer's LabelStreamCursor (a monotone
  /// transition-list cursor plus the subject's codebook column).
  SecureStreamFilter(const DolLabeling* labeling, SubjectId subject,
                     std::string* out)
      : labeling_(labeling), out_(out), cursor_(labeling, subject) {}

  Status StartElement(std::string_view name) override;
  Status Characters(std::string_view text) override;
  Status EndElement(std::string_view name) override;

  /// Number of element events consumed (for validating against the
  /// labeling's document size).
  NodeId nodes_seen() const { return next_node_; }

  /// Execution counters of the underlying cursor: one nodes_scanned /
  /// codes_checked pair per subtree-root accessibility decision (nodes
  /// inside suppressed subtrees are never checked).
  const ExecStats& exec_stats() const { return cursor_.stats(); }

 private:
  void CloseStartTagIfOpen();
  void AppendEscaped(std::string_view text);

  const DolLabeling* labeling_;
  std::string* out_;
  LabelStreamCursor cursor_;

  NodeId next_node_ = 0;
  /// Number of currently open elements inside a suppressed subtree; 0 means
  /// emitting.
  uint32_t suppress_depth_ = 0;
  /// An emitted start tag whose '>' has not been written yet (attributes may
  /// still arrive).
  bool tag_open_ = false;
  /// Currently inside an emitted attribute pseudo-element.
  bool in_attribute_ = false;
  std::string attr_name_;
  std::string attr_value_;
};

}  // namespace secxml

#endif  // SECXML_CORE_STREAM_FILTER_H_
