#ifndef SECXML_STORAGE_SHARD_MAP_H_
#define SECXML_STORAGE_SHARD_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace secxml {

/// One candidate window's contiguous slice of the document-order page
/// space, expressed both in page ordinals and in the node-id interval those
/// pages begin (node ids are plain uint32_t here — NodeId from
/// xml/document.h — kept as integers so storage stays below xml in the
/// layering).
struct ShardRange {
  size_t first_page = 0;  ///< page ordinals [first_page, end_page)
  size_t end_page = 0;
  uint32_t first_node = 0;  ///< node ids [first_node, end_node)
  uint32_t end_node = 0;

  bool empty() const { return first_node >= end_node; }
  size_t num_pages() const { return end_page - first_page; }
};

/// The candidate windows of one scatter-gather request (DESIGN.md §13). The
/// page space is cut into num_shards contiguous ranges of near-equal page
/// count; because pages are laid out in document order, each range is also
/// a contiguous node-id interval, and the intervals tile [0, num_nodes)
/// exactly — every node (hence every fragment-match candidate) falls in
/// exactly one window. With fewer pages than windows the trailing windows
/// are empty.
///
/// The map is a pure value. The coordinator cuts it per request from the
/// snapshot the request pinned, so it always tiles that snapshot's node
/// count even while structural updates commit.
class ShardMap {
 public:
  ShardMap() = default;

  /// Partitions `page_first_nodes.size()` pages (entry i = first node id
  /// stored on page i, ascending, [0] == 0) into `num_shards` ranges.
  static ShardMap Partition(const std::vector<uint32_t>& page_first_nodes,
                            uint32_t num_nodes, size_t num_shards);

  size_t num_shards() const { return ranges_.size(); }
  const ShardRange& range(size_t shard) const { return ranges_[shard]; }

 private:
  std::vector<ShardRange> ranges_;
};

}  // namespace secxml

#endif  // SECXML_STORAGE_SHARD_MAP_H_
