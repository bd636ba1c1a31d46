#ifndef SECXML_CACHE_RESULT_CACHE_H_
#define SECXML_CACHE_RESULT_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/cache_key.h"

namespace secxml::cache {

/// What a ResultCache stores: the cache is payload-agnostic so it can live
/// below the query layer (no dependency on EvalResult). Payloads are
/// immutable once published and shared by reference with every hit.
class CacheableResult {
 public:
  virtual ~CacheableResult() = default;
  /// Bytes this payload pins in memory, counted against the cache budget.
  virtual size_t ApproxBytes() const = 0;
};

struct ResultCacheOptions {
  /// Lock shards (rounded up to a power of two). Each shard has its own
  /// mutex, hash map, LRU list, and single-flight set.
  size_t shards = 8;
  /// Total payload budget across all shards. An entry that alone exceeds
  /// its shard's slice is rejected outright (fail closed, like an oversized
  /// BufferPool pin request) rather than evicting the whole shard for it.
  size_t max_bytes = 64u << 20;
};

/// Sharded, epoch-aware, byte-budgeted LRU cache of materialized secure
/// query answers, keyed by (visibility-class fingerprint, normalized query,
/// semantics flags) — DESIGN.md §14.
///
/// Correctness model. Every entry records the epoch of the snapshot it was
/// computed against plus its *ACL dependency footprint*: either
/// acl_independent (the answer cannot change under any accessibility
/// update) or a document-order range [begin, end) outside which
/// accessibility changes provably cannot change the answer. An
/// accessibility update changes one subject's visibility, so it can only
/// affect entries keyed by that subject's class fingerprint (DESIGN.md §14
/// gives the argument). The store's commit hook calls InvalidateAclRange /
/// Flush *before any reader can pin the new epoch* (SecureStore fires hooks
/// under its snapshot-publication lock), which yields the serving rule: an
/// entry is valid for a reader pinned at epoch R iff entry.epoch <= R — had
/// any commit in (entry.epoch, R] affected it, the entry would already have
/// been erased by the time R became pinnable. A reader pinned *older* than
/// an entry must not be served it (the entry may bake in updates the
/// reader's snapshot excludes).
///
/// Late publishes. An answer is evaluated outside any cache lock, so an
/// invalidation can race the evaluation and the publish must not resurrect
/// stale data. The cache keeps a bounded ring of recent invalidation events
/// plus a floor epoch (raised when the ring overflows or a flush discards
/// history); Publish rejects any entry that an event after its epoch could
/// have affected, or whose epoch predates the floor. Rejections are counted
/// (rejected_inserts) and surface as result_cache_invalidations in the
/// evaluating query's ExecStats.
///
/// Single-flight. A miss can register its caller as the key's evaluation
/// leader; concurrent misses on the same key either wait (GetOrWait) or
/// proceed live without waiting (Get — the batch paths, which must not
/// block holding per-class state). A leader must Publish or Abandon; both
/// release the flight and wake waiters. A caller must not wait on one key
/// while leading another (deadlock by design; the query layer never does).
class ResultCache {
 public:
  using Epoch = uint64_t;

  struct Entry {
    std::shared_ptr<const CacheableResult> payload;
    Epoch epoch = 0;          ///< snapshot the payload was computed against
    uint64_t begin = 0;       ///< ACL footprint [begin, end), document order
    uint64_t end = 0;
    bool acl_independent = false;  ///< no accessibility update can affect it
  };

  enum class ProbeOutcome {
    kHit,           ///< payload returned; served count bumped
    kMissLead,      ///< caller is now the key's flight leader
    kMissInFlight,  ///< another caller is evaluating; no leadership taken
  };

  struct Probe {
    ProbeOutcome outcome = ProbeOutcome::kMissLead;
    std::shared_ptr<const CacheableResult> payload;  ///< kHit only
    Epoch epoch = 0;   ///< kHit only: the entry's publish epoch
    uint32_t waits = 0;  ///< times GetOrWait blocked before resolving
  };

  /// Monotonic counters plus a point-in-time occupancy snapshot.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t rejected_inserts = 0;  ///< racing invalidation or over budget
    uint64_t evictions = 0;
    uint64_t invalidated = 0;  ///< entries erased by range invalidation
    uint64_t flushes = 0;
    uint64_t single_flight_waits = 0;
    uint64_t entries = 0;  ///< current resident entries
    uint64_t bytes = 0;    ///< current resident payload + key bytes
  };

  explicit ResultCache(const ResultCacheOptions& options = {});

  /// Non-blocking probe for a reader pinned at `reader_epoch`. A miss with
  /// no flight in progress registers the caller as leader (kMissLead — the
  /// caller MUST later Publish or Abandon this key).
  Probe Get(const ResultKey& key, Epoch reader_epoch);

  /// Blocking probe: like Get, but a kMissInFlight waits for the leader to
  /// publish or abandon, then re-probes. Returns kHit or kMissLead, never
  /// kMissInFlight.
  Probe GetOrWait(const ResultKey& key, Epoch reader_epoch);

  /// Publishes an answer. Returns false (and drops the entry) when a racing
  /// invalidation or the byte budget rejects it — the caller's live answer
  /// is still correct; only the cache declined to keep it. Always releases
  /// the key's flight and wakes waiters, whether or not the caller led.
  bool Publish(const ResultKey& key, Entry entry);

  /// Releases the key's flight without publishing (evaluation failed).
  void Abandon(const ResultKey& key);

  /// Erases every entry an accessibility change over [begin, end) for the
  /// visibility class with column fingerprint (column_hi, column_lo) at
  /// commit `epoch` could affect — entries keyed by that fingerprint whose
  /// footprint overlaps the range — and records the event so late
  /// publishes of such answers computed before it are rejected.
  void InvalidateAclRange(uint64_t column_hi, uint64_t column_lo,
                          uint64_t begin, uint64_t end, Epoch epoch);

  /// Erases everything (structural or shape change at commit `epoch`);
  /// publishes of anything computed before `epoch` are rejected from here
  /// on.
  void Flush(Epoch epoch);

  Stats stats() const;

 private:
  struct Resident {
    Entry entry;
    std::list<ResultKey>::iterator lru_it;
    size_t bytes = 0;
  };

  struct Shard {
    std::mutex mu;
    std::condition_variable flight_cv;
    std::unordered_map<ResultKey, Resident, ResultKeyHash> table;
    std::list<ResultKey> lru;  ///< front = most recent
    std::unordered_set<ResultKey, ResultKeyHash> in_flight;
    size_t resident_bytes = 0;  ///< this shard's slice of the budget
  };

  /// One recorded invalidation, kept so late publishes can be checked
  /// against commits that raced their evaluation.
  struct Event {
    uint64_t column_hi = 0;  ///< the changed class (ACL events only)
    uint64_t column_lo = 0;
    uint64_t begin = 0;
    uint64_t end = 0;
    bool structural = false;  ///< affects every entry regardless of range
    Epoch epoch = 0;
  };

  Shard& ShardOf(const ResultKey& key) {
    return shards_[ResultKeyHash{}(key) & shard_mask_];
  }

  static bool EventAffects(const Event& ev, const ResultKey& key,
                           const Entry& entry) {
    if (ev.epoch <= entry.epoch) return false;
    if (ev.structural) return true;
    if (entry.acl_independent) return false;
    if (key.column_hi != ev.column_hi || key.column_lo != ev.column_lo) {
      return false;
    }
    return ev.begin < entry.end && entry.begin < ev.end;
  }

  /// Erases `it` from `shard` (caller holds shard.mu) and returns the next
  /// iterator.
  std::unordered_map<ResultKey, Resident, ResultKeyHash>::iterator EraseLocked(
      Shard& shard,
      std::unordered_map<ResultKey, Resident, ResultKeyHash>::iterator it);

  size_t shard_mask_;
  size_t shard_budget_;
  std::vector<Shard> shards_;

  /// Guards the event ring and floor; held across Publish's validate+insert
  /// and InvalidateAclRange/Flush's record+erase so a publish can never
  /// slip a stale entry in behind an invalidation scan (lock order:
  /// events_mu_ before any shard.mu).
  mutable std::mutex events_mu_;
  std::deque<Event> events_;
  Epoch floor_epoch_ = 0;  ///< publishes with entry.epoch < floor are rejected

  static constexpr size_t kMaxEvents = 256;

  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> rejected_inserts_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidated_{0};
  std::atomic<uint64_t> flushes_{0};
  mutable std::atomic<uint64_t> single_flight_waits_{0};
  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> bytes_{0};
};

}  // namespace secxml::cache

#endif  // SECXML_CACHE_RESULT_CACHE_H_
