#include "storage/shard_map.h"

namespace secxml {

ShardMap ShardMap::Partition(const std::vector<uint32_t>& page_first_nodes,
                             uint32_t num_nodes, size_t num_shards) {
  ShardMap map;
  if (num_shards == 0) return map;
  map.ranges_.resize(num_shards);
  const size_t pages = page_first_nodes.size();
  for (size_t s = 0; s < num_shards; ++s) {
    ShardRange& r = map.ranges_[s];
    r.first_page = s * pages / num_shards;
    r.end_page = (s + 1) * pages / num_shards;
    r.first_node =
        r.first_page < pages ? page_first_nodes[r.first_page] : num_nodes;
  }
  for (size_t s = 0; s < num_shards; ++s) {
    map.ranges_[s].end_node =
        s + 1 < num_shards ? map.ranges_[s + 1].first_node : num_nodes;
  }
  return map;
}

}  // namespace secxml
