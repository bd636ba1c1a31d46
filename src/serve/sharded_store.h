#ifndef SECXML_SERVE_SHARDED_STORE_H_
#define SECXML_SERVE_SHARDED_STORE_H_

#include <chrono>
#include <functional>
#include <memory>

#include "common/result.h"
#include "common/status.h"
#include "core/secure_store.h"
#include "storage/paged_file.h"
#include "storage/shard_map.h"

namespace secxml {

/// The backing files of the store. Non-owning, matching SecureStore's file
/// convention: the provider that hands these out (tests, benches, or a
/// ShardFileSet) keeps them alive for the store's lifetime. `wal` is null
/// when the store runs without a log.
struct ShardFiles {
  PagedFile* data = nullptr;
  PagedFile* wal = nullptr;
};

/// Hands out the backing files. Build asks for index 0 only.
using ShardFileProvider = std::function<Result<ShardFiles>(size_t shard)>;

struct ShardedStoreOptions {
  /// Candidate windows each request is cut into (and the default scatter
  /// width of a ShardCoordinator).
  size_t num_shards = 4;
  /// NokStore settings of the one store. Its buffer pool holds
  /// num_shards × nok.buffer_pool_pages pages.
  NokStoreOptions nok;
  /// Attach a WAL, so the store's updates are crash-recoverable through
  /// SecureStore::OpenWithWal.
  bool attach_wal = true;
};

/// Owns one MemPagedFile pair, optionally wrapped in a LatencyPagedFile that
/// charges device read latency per physical page read (the scatter workers
/// overlap these delays). The set must outlive the ShardedStore built on
/// it. Kept for the benchmark's call; `num_shards` is ignored, since one
/// store needs one file pair.
class ShardFileSet {
 public:
  explicit ShardFileSet(size_t num_shards,
                        std::chrono::microseconds read_latency =
                            std::chrono::microseconds(0));

  /// A provider serving this set's files. Valid while the set lives.
  ShardFileProvider provider();

 private:
  MemPagedFile data_;
  MemPagedFile wal_;
  std::unique_ptr<LatencyPagedFile> delayed_;
};

/// One SecureStore whose node space the ShardCoordinator (shard_coordinator.h)
/// cuts into num_shards() candidate windows on each request (DESIGN.md §13).
/// What is partitioned is work, not data: every window's scan reads the one
/// store through its one buffer pool, so a match whose subtree spans past
/// the window's end comes out whole. Updates, checkpoints and recovery go
/// through store() directly.
class ShardedStore {
 public:
  /// Builds the store from `files(0)`, with a WAL (sealed with an initial
  /// checkpoint) when options.attach_wal is set.
  static Status Build(const Document& doc, const DolLabeling& labeling,
                      const ShardedStoreOptions& options,
                      const ShardFileProvider& files,
                      std::unique_ptr<ShardedStore>* out);

  SecureStore* store() { return store_.get(); }

  /// Candidate windows per request.
  size_t num_shards() const { return num_windows_; }

  /// The one store for every index. Kept for the benchmark only, which still
  /// iterates over shard indices.
  SecureStore* shard_store(size_t) { return store_.get(); }

  /// Cuts the calling thread's snapshot of the store (the one its
  /// SnapshotPin holds, else the latest committed one) into num_shards()
  /// windows tiling that snapshot's [0, num_nodes).
  ShardMap Windows() const;

  /// The store's buffer-pool traffic.
  IoStatsSnapshot io_snapshot() const {
    return store_->io_stats().Snapshot();
  }

 private:
  ShardedStore(size_t num_windows, std::unique_ptr<SecureStore> store)
      : num_windows_(num_windows), store_(std::move(store)) {}

  size_t num_windows_;
  std::unique_ptr<SecureStore> store_;
};

}  // namespace secxml

#endif  // SECXML_SERVE_SHARDED_STORE_H_
