#include "storage/readahead.h"

namespace secxml {

Readahead::Readahead(BufferPool* pool, size_t num_workers, size_t max_queue)
    : pool_(pool), max_queue_(max_queue) {
  if (num_workers == 0) num_workers = 1;
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Readahead::~Readahead() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    // Abandon queued work; in-flight fetches finish on their own.
    queue_.clear();
    queued_.clear();
  }
  work_cv_.notify_all();
  drain_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Readahead::Request(PageId id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    if (queue_.size() >= max_queue_ || queued_.count(id) != 0) {
      ++stats_.dropped;
      return;
    }
    queue_.push_back(id);
    queued_.insert(id);
    ++stats_.requested;
  }
  work_cv_.notify_one();
}

void Readahead::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] {
    return stop_ || (queue_.empty() && in_flight_ == 0);
  });
}

Readahead::Stats Readahead::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Readahead::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    PageId id = queue_.front();
    queue_.pop_front();
    queued_.erase(id);
    ++in_flight_;
    lock.unlock();
    // Pin-free: the page lands at the MRU end of its shard's LRU list, so
    // the sweep's synchronous Fetch shortly after is a hit, and no
    // foreground fetch ever finds a frame held by the prefetcher.
    Result<bool> loaded = pool_->Prefetch(id);
    lock.lock();
    --in_flight_;
    ++stats_.completed;
    if (!loaded.ok()) {
      ++stats_.failed;
      if (stats_.first_error.ok()) stats_.first_error = loaded.status();
    } else if (!*loaded) {
      ++stats_.no_frame;
    }
    if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
  }
}

}  // namespace secxml
