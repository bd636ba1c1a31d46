#include "serve/sharded_store.h"

#include <utility>
#include <vector>

namespace secxml {

ShardFileSet::ShardFileSet(size_t /*num_shards*/,
                           std::chrono::microseconds read_latency) {
  if (read_latency.count() > 0) {
    delayed_ = std::make_unique<LatencyPagedFile>(&data_, read_latency);
  }
}

ShardFileProvider ShardFileSet::provider() {
  return [this](size_t) -> Result<ShardFiles> {
    ShardFiles f;
    f.data = delayed_ != nullptr ? static_cast<PagedFile*>(delayed_.get())
                                 : &data_;
    f.wal = &wal_;
    return f;
  };
}

Status ShardedStore::Build(const Document& doc, const DolLabeling& labeling,
                           const ShardedStoreOptions& options,
                           const ShardFileProvider& files,
                           std::unique_ptr<ShardedStore>* out) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("a sharded store needs at least one window");
  }
  SECXML_ASSIGN_OR_RETURN(ShardFiles f, files(0));
  NokStoreOptions nok = options.nok;
  nok.buffer_pool_pages *= options.num_shards;
  std::unique_ptr<SecureStore> store;
  if (options.attach_wal) {
    if (f.wal == nullptr) {
      return Status::InvalidArgument("attach_wal needs a wal file");
    }
    SECXML_RETURN_NOT_OK(
        SecureStore::BuildWithWal(doc, labeling, f.data, f.wal, nok, &store));
  } else {
    SECXML_RETURN_NOT_OK(
        SecureStore::Build(doc, labeling, f.data, nok, &store));
  }
  out->reset(new ShardedStore(options.num_shards, std::move(store)));
  return Status::OK();
}

ShardMap ShardedStore::Windows() const {
  // Nests inside the caller's pin when there is one, so the page directory
  // and the node count come from one snapshot either way.
  SecureStore::SnapshotPin pin(store_.get());
  NokStore* nok = store_->nok();
  const std::vector<NokStore::PageInfo>& infos = nok->page_infos();
  std::vector<uint32_t> first_nodes;
  first_nodes.reserve(infos.size());
  for (const NokStore::PageInfo& info : infos) {
    first_nodes.push_back(info.first_node);
  }
  return ShardMap::Partition(first_nodes, nok->num_nodes(), num_windows_);
}

}  // namespace secxml
