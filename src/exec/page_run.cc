#include "exec/page_run.h"

#include <string>

namespace secxml {

Status PageRun::Fetch(NokStore* nok, size_t ordinal, ExecStats* stats) {
  // Drop the held pin first: a thread scanning through a PageRun never
  // holds two, so a shard with as many frames as scanning threads always
  // has one to give.
  handle_.Release();
  if (ordinal >= nok->num_pages()) {
    return Status::Corruption("page ordinal " + std::to_string(ordinal) +
                              " out of range");
  }
  const NokStore::PageInfo& info = nok->page_infos()[ordinal];
  bool miss = false;
  SECXML_ASSIGN_OR_RETURN(handle_,
                          nok->buffer_pool()->Fetch(info.page_id, &miss));
  if (miss) ++stats->fetch_waits;
  ordinal_ = ordinal;
  info_ = info;
  decoded_ = false;
  return Status::OK();
}

Result<NodeId> PageRun::FirstAtDepth(NokStore* nok, size_t ordinal,
                                     uint16_t depth, NodeId limit,
                                     ExecStats* stats) {
  SECXML_RETURN_NOT_OK(Hold(nok, ordinal, stats));
  for (NodeId n = info_.first_node;
       n < info_.first_node + info_.num_records && n < limit; ++n) {
    if (Record(n).depth == depth) return n;
  }
  return kInvalidNode;
}

Status PageRun::Decode() {
  SECXML_ASSIGN_OR_RETURN(codes_,
                          PageCodes::Decode(handle_.page(), info_.page_id));
  decoded_ = true;
  return Status::OK();
}

}  // namespace secxml
