#ifndef SECXML_NOK_NOK_STORE_H_
#define SECXML_NOK_NOK_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "nok/nok_format.h"
#include "storage/buffer_pool.h"
#include "storage/paged_file.h"
#include "storage/readahead.h"
#include "storage/vacuum.h"
#include "xml/document.h"
#include "xml/tag_dictionary.h"

namespace secxml {

/// Build-time options for a NokStore.
struct NokStoreOptions {
  /// Buffer pool capacity in pages.
  size_t buffer_pool_pages = 256;

  /// Buffer pool latch shards (0 = automatic; see BufferPool). Raise this
  /// when many threads serve queries over one store so that concurrent page
  /// fetches latch different shards.
  size_t buffer_pool_shards = 0;

  /// Transition slots reserved per page at build time beyond those the page
  /// initially needs, so in-place accessibility updates (which add at most 2
  /// transitions each, Proposition 1) rarely force a page split.
  uint32_t transition_slack = 4;

  /// Cap on records per page; lowering it below the physical maximum models
  /// smaller pages without changing kPageSize. 0 = physical maximum.
  uint32_t max_records_per_page = 0;

  /// Document-order readahead window in pages (0 = no prefetching). When
  /// positive, the store owns a background Readahead over its buffer pool
  /// and the sequential sweeps (hidden-interval computation, codebook
  /// compaction) keep up to this many upcoming pages in flight, overlapping
  /// device read latency with computation.
  size_t readahead_window = 0;

  /// Background prefetch worker threads (only used when readahead_window
  /// is positive). More workers keep more physical reads in flight.
  size_t readahead_workers = 2;

  /// Crash-recovery open: instead of requiring the superblock to sit in the
  /// file's last page, scan backward for the most recent valid one. Updates
  /// after a checkpoint allocate fresh pages past the superblock (shadow
  /// paging), so after a crash the last durable checkpoint is *not* the last
  /// page — but its pages are never overwritten, so it is always intact.
  /// With this flag an Open without any superblock fails (recovery requires
  /// a checkpoint) instead of falling back to the legacy physical-order scan.
  bool recover_superblock = false;
};

/// Block-oriented NoK storage of an XML document's structure with embedded
/// DOL access-control codes (paper Sections 3.1-3.3).
///
/// The store owns:
///  - the paged structural data (via a BufferPool over a PagedFile),
///  - the in-memory per-page header table (the paper keeps these headers in
///    memory to enable page skipping without I/O),
///  - the in-memory text-value table (the paper stores values separately
///    from structure; queries in the reproduced experiments are structural),
///  - an in-memory tag index (tag -> document-order posting list) used to
///    seed NoK pattern matching.
///
/// Access-control *codes* here are opaque 32-bit values; their meaning (which
/// subjects may access) is defined by the DOL codebook in src/core.
///
/// Thread safety (DESIGN.md §11): all in-memory tables (page directory,
/// node count, tag dictionary, value pool, postings) live in an immutable
/// snapshot `State` published via shared_ptr. Updates run as transactions
/// (BeginUpdate / mutate / CommitUpdate) on a private copy with shadow-paged
/// page writes — a modified page always gets a fresh page id, committed
/// pages are never rewritten — so one writer may run concurrently with any
/// number of readers. A reader that must observe one consistent snapshot
/// across many calls holds a ReadPin; unpinned reads see the latest
/// committed state and are only safe when no writer runs concurrently (the
/// historical contract). The read API — Record, RecordAndCode, AccessCode,
/// FirstAtDepthInPage, PageTransitions, Postings, PageOrdinalOf, page_infos,
/// tags, Value, num_nodes/num_pages — is safe from many threads. Updates
/// themselves are single-writer: Begin/Commit and the mutators must be
/// externally serialized (SecureStore holds its update mutex across them).
class NokStore {
  /// (Private) one immutable snapshot of every in-memory table; defined in
  /// the private section below, forward-declared so ReadPin can hold one.
  struct State;

 public:
  /// In-memory mirror of a page's header plus its position in document
  /// order. first_node is the document-order id of the page's first record.
  struct PageInfo {
    PageId page_id = kInvalidPage;
    NodeId first_node = 0;
    uint16_t num_records = 0;
    uint16_t first_depth = 0;
    uint32_t first_code = 0;
    bool change_bit = false;
  };

  /// Builds a store from `doc`, embedding access codes supplied by `code_of`
  /// in the same single document-order pass that lays out the structure.
  /// `code_of` may be null, in which case every node gets code 0.
  static Status Build(const Document& doc, PagedFile* file,
                      const NokStoreOptions& options,
                      const std::function<uint32_t(NodeId)>& code_of,
                      std::unique_ptr<NokStore>* out);

  /// Opens an existing store. If the file ends with a superblock written by
  /// Persist(), the page directory, tag dictionary, and value pool are
  /// restored from it (correct even after page splits and structural
  /// updates); otherwise the pages are scanned in physical order, which
  /// equals document order for a freshly built store that was never
  /// persisted — in that legacy case values are unavailable.
  /// `user_blob`, when non-null, receives the opaque bytes stored by the
  /// matching Persist() call (empty for legacy files) — SecureStore keeps
  /// its codebook there. With options.recover_superblock the superblock is
  /// searched backward from the end (see NokStoreOptions).
  static Status Open(PagedFile* file, const NokStoreOptions& options,
                     std::unique_ptr<NokStore>* out,
                     std::vector<uint8_t>* user_blob = nullptr);

  /// Flushes dirty pages and appends a superblock (page directory, tag
  /// dictionary, value pool, plus the caller's opaque `user_blob`) so a
  /// later Open() restores this exact store. May be called repeatedly; each
  /// call appends a fresh snapshot and Open() uses the last one. Obsolete
  /// snapshots and orphaned pages are reclaimed only by CompactTo().
  /// Persists the *committed* state; must not run inside a transaction.
  Status Persist(const std::vector<uint8_t>& user_blob = {});

  /// Rewrites the store densely into an empty `dest` file (document order,
  /// freshly packed pages, no orphaned space), carrying tags, values, and
  /// embedded access codes over. The compacted store is persisted.
  Status CompactTo(PagedFile* dest, const NokStoreOptions& options,
                   std::unique_ptr<NokStore>* out);

  NokStore(const NokStore&) = delete;
  NokStore& operator=(const NokStore&) = delete;

  // --- Snapshots and update transactions (DESIGN.md §11) ----------------

  /// RAII snapshot pin. While alive, every read API call made *on this
  /// thread* against the pinned store resolves against the state that was
  /// committed when the pin was taken, regardless of concurrent commits,
  /// and the snapshot's tables stay alive. Pins nest: an inner pin on the
  /// same store adopts the outer pin's snapshot, so a query's helper code
  /// can pin defensively without ever straddling two states.
  class ReadPin {
   public:
    explicit ReadPin(const NokStore* store);
    /// Pins `adopt`'s snapshot on the calling thread, which may differ from
    /// the thread that took `adopt` (a scatter worker adopting its
    /// coordinator's pin). `adopt` must be a pin on `store` and must outlive
    /// this one.
    ReadPin(const NokStore* store, const ReadPin& adopt);
    ~ReadPin();
    ReadPin(const ReadPin&) = delete;
    ReadPin& operator=(const ReadPin&) = delete;

   private:
    friend class NokStore;
    const NokStore* store_;
    std::shared_ptr<const State> state_;
    ReadPin* next_;  ///< previous head of this thread's pin chain
  };

  /// Starts an update transaction: mutators stage into a private copy of
  /// the directory and shadow-paged page copies, invisible to readers (but
  /// visible to further reads *on the writer thread*, so staged mutations
  /// compose). Fails if a transaction is already open. Mutators called
  /// outside a transaction wrap themselves in one automatically.
  Status BeginUpdate();

  /// Atomically publishes the staged state to readers.
  Status CommitUpdate();

  /// Discards the staged state; readers never saw any of it. Shadow page
  /// copies leak in the file until CompactTo, like replaced pages do.
  void AbortUpdate();

  /// True between BeginUpdate and Commit/Abort. Writer thread only.
  bool InUpdate() const { return work_ != nullptr; }

  /// Total document nodes.
  NodeId num_nodes() const;
  /// Number of document-order pages.
  size_t num_pages() const;

  /// Reads the structural record of node `n` (one buffer-pool fetch).
  Result<NokRecord> Record(NodeId n);

  /// Reads the record *and* resolves the access code of node `n` with a
  /// single buffer-pool fetch — the hot path of ε-NoK (Section 3.3: the
  /// code is found on the same page as the node, so checking accessibility
  /// right after loading the record costs no additional I/O or lookup).
  Status RecordAndCode(NodeId n, NokRecord* record, uint32_t* code);

  /// Record / RecordAndCode for a caller that already knows n's page
  /// ordinal (the secure matcher tracks it for page-verdict checks),
  /// skipping the ordinal binary search.
  Result<NokRecord> RecordInPage(size_t ordinal, NodeId n);
  Status RecordAndCodeInPage(size_t ordinal, NodeId n, NokRecord* record,
                             uint32_t* code);

  /// First child of `n`, or kInvalidNode if `n` is a leaf. `rec` must be the
  /// record of `n`.
  static NodeId FirstChild(NodeId n, const NokRecord& rec) {
    return rec.subtree_size > 1 ? n + 1 : kInvalidNode;
  }

  /// Following sibling of `n` within a parent whose subtree ends (exclusive)
  /// at `parent_end`, or kInvalidNode. `rec` must be the record of `n`.
  static NodeId FollowingSibling(NodeId n, const NokRecord& rec,
                                 NodeId parent_end) {
    NodeId cand = n + rec.subtree_size;
    return cand < parent_end ? cand : kInvalidNode;
  }

  /// Access-control code in effect for node `n`, resolved entirely within
  /// n's page (Section 3.3): the nearest embedded transition at or before n,
  /// falling back to the page's initial code.
  Result<uint32_t> AccessCode(NodeId n);

  /// Text value of a record, or empty. Valid only for stores created with
  /// Build().
  std::string_view Value(const NokRecord& rec) const;

  /// Document-order posting list for a tag (empty if the tag is absent).
  const std::vector<NodeId>& Postings(TagId tag) const;

  /// Tag dictionary shared with the source document.
  const TagDictionary& tags() const;

  /// In-memory page header table, in document order. The reference is valid
  /// while the snapshot it came from lives (hold a ReadPin across uses that
  /// must survive a concurrent commit).
  const std::vector<PageInfo>& page_infos() const;

  /// Ordinal (index into page_infos) of the page containing node `n`.
  size_t PageOrdinalOf(NodeId n) const;

  /// Scans the page at `ordinal` for the first node with exactly `depth`,
  /// at or after `from_node` and strictly below `limit`. Returns
  /// kInvalidNode if the page holds no such node. One buffer-pool fetch.
  /// Used by the secure matcher to find the next sibling at a target depth
  /// after skipping wholly inaccessible pages (Section 3.3).
  Result<NodeId> FirstAtDepthInPage(size_t ordinal, uint16_t depth,
                                    NodeId from_node, NodeId limit);

  /// Reads the embedded transition list of the page at `ordinal`
  /// (slots ascending).
  Result<std::vector<DolTransition>> PageTransitions(size_t ordinal);

  /// Rewrites the access-control region of the page at `ordinal`: its
  /// initial code and its embedded transition list (slots must be ascending,
  /// in (0, num_records)). If the transitions no longer fit beside the
  /// page's records, the page is split: a fresh page is appended to the file
  /// and the tail half of the records moves there; the in-memory header
  /// table is updated (later pages keep their ids and first_node values).
  Status SetPageAcl(size_t ordinal, uint32_t first_code,
                    std::vector<DolTransition> transitions);

  /// Physically reorganizes the whole store into the visibility-clustered
  /// layout (the storage half of the "secure VACUUM"): page boundaries are
  /// re-cut at access-code run boundaries — document order is untouched,
  /// node ids ARE positions — so pages come out code-homogeneous wherever
  /// runs reach `min_run_records`, making per-class page verdicts decisive
  /// and batch page skipping effective. Every page is freshly composed
  /// (shadow paging; old pages leak until CompactTo) and the directory is
  /// rebuilt; node ids, tag postings and per-record codes are unchanged.
  /// `plan` (optional) receives the planned layout and homogeneity stats.
  Status Repack(size_t min_run_records, VacuumPlan* plan = nullptr);

  // --- Structural updates (paper Section 3.4) --------------------------
  //
  // Node ids are document-order positions, so deleting or inserting a
  // subtree implicitly renumbers all later nodes; only the pages covering
  // the changed range and the ancestors' size fields are rewritten (update
  // locality), and the in-memory page directory and tag postings are
  // maintained. Access codes of surviving nodes are preserved, including
  // across the splice boundaries.

  /// Deletes the subtree rooted at `root` (the root itself included).
  /// Deleting the document root is rejected.
  Status DeleteSubtree(NodeId root);

  /// Inserts `fragment` as a new child of `parent`, right after the
  /// existing child `after` (kInvalidNode = as first child). Fragment tags
  /// are interned into this store's dictionary; `code_of` supplies the
  /// access code of each fragment node (fragment-relative ids; null = all
  /// zero). Returns the document id where the fragment root landed.
  Result<NodeId> InsertSubtree(NodeId parent, NodeId after,
                               const Document& fragment,
                               const std::function<uint32_t(NodeId)>& code_of);

  /// The proper ancestors of `target`, topmost first, found by descending
  /// from the document root (O(depth * fanout) record reads).
  Status AncestorChain(NodeId target, std::vector<NodeId>* chain);

  /// Total embedded transition entries across all pages (excludes the
  /// implicit per-page initial codes); for storage accounting.
  Result<uint64_t> CountEmbeddedTransitions();

  BufferPool* buffer_pool() { return &pool_; }
  const IoStats& io_stats() const { return pool_.stats(); }

  /// The background prefetcher, or nullptr when readahead is disabled
  /// (readahead_window == 0). Issuers must Drain() before returning (see
  /// ReadaheadDrainGuard) so no background fetch overlaps a later update.
  Readahead* readahead() { return readahead_.get(); }

  /// Configured readahead window in pages (0 = disabled).
  size_t readahead_window() const { return options_.readahead_window; }

  /// Reconfigures readahead (0 window disables it). Requires exclusive
  /// access, like updates: the old prefetcher is torn down and no reader
  /// may be issuing requests concurrently. Benchmarks use this to A/B the
  /// same store with prefetching off and on.
  void SetReadahead(size_t window, size_t workers = 2);

  /// Verifies structural invariants (subtree sizes, depths, page headers);
  /// used by tests and after updates.
  Status CheckIntegrity();

 private:
  /// The heavyweight tables are shared between consecutive snapshots and
  /// cloned only on first mutation in a transaction (most ACL updates touch
  /// none of them).
  struct State {
    std::vector<PageInfo> pages;
    NodeId num_nodes = 0;
    std::shared_ptr<const TagDictionary> tags;
    std::shared_ptr<const std::vector<std::string>> values;
    std::shared_ptr<const std::vector<std::vector<NodeId>>> postings;

    State()
        : tags(std::make_shared<TagDictionary>()),
          values(std::make_shared<std::vector<std::string>>()),
          postings(std::make_shared<std::vector<std::vector<NodeId>>>()) {}
  };

  NokStore(PagedFile* file, const NokStoreOptions& options);

  /// The snapshot this call should read: the staged state on the writer
  /// thread mid-transaction, the thread's pinned snapshot if any, else the
  /// latest committed state.
  const State& read_state() const;

  /// The staged state; transaction must be open, writer thread only.
  State& wip() { return *work_; }
  const State& wip() const { return *work_; }

  /// Clone-on-first-touch accessors for the staged shared tables.
  TagDictionary& wip_tags();
  std::vector<std::string>& wip_values();
  std::vector<std::vector<NodeId>>& wip_postings();

  /// Fetches the staged page at `ordinal` for modification, shadow-copying
  /// it to a fresh page id the first time a transaction touches it (so the
  /// committed image survives for pinned readers and crash recovery) and
  /// recording it in fresh_pages_.
  Result<PageHandle> CowFetch(size_t ordinal);

  // Transaction-internal bodies of the public mutators (the public entry
  // points add the auto-wrapping transaction).
  Status RepackStaged(size_t min_run_records, VacuumPlan* plan);

  Status SetPageAclStaged(size_t ordinal, uint32_t first_code,
                          std::vector<DolTransition> transitions);
  Status DeleteSubtreeStaged(NodeId root);
  Result<NodeId> InsertSubtreeStaged(
      NodeId parent, NodeId after, const Document& fragment,
      const std::function<uint32_t(NodeId)>& code_of);

  /// Splits page `ordinal`, moving its tail records to a new page so that
  /// `needed_transitions` entries fit somewhere. Transition lists for both
  /// halves are derived from `transitions` (the full intended list).
  Status SplitAndSet(size_t ordinal, uint32_t first_code,
                     const std::vector<DolTransition>& transitions);

  /// Reads all records of a page together with each record's resolved
  /// access code.
  Status ReadPageContents(size_t ordinal, std::vector<NokRecord>* records,
                          std::vector<uint32_t>* codes);

  /// Replaces directory entries [begin_ord, end_ord) with freshly packed
  /// pages holding `records`/`codes` (headers and transition lists derived
  /// from code runs; packing respects max_records_per_page and transition
  /// slack), then renumbers the directory's first_node fields. Old pages
  /// leak in the file until a rebuild; num_nodes and postings are the
  /// caller's responsibility.
  Status ReplacePageRange(size_t begin_ord, size_t end_ord,
                          const std::vector<NokRecord>& records,
                          const std::vector<uint32_t>& codes);

  /// Recomputes the cumulative first_node of every staged directory entry.
  void RebuildFirstNodes();

  /// Adds `delta` to the subtree_size of each node in `chain`.
  Status AdjustSubtreeSizes(const std::vector<NodeId>& chain, int64_t delta);

  /// Renumbers postings for a splice at `pos`: ids >= pos + removed shift by
  /// (added - removed); ids in [pos, pos + removed) are dropped.
  void SplicePostings(NodeId pos, NodeId removed, NodeId added);

  NokStoreOptions options_;
  BufferPool pool_;

  /// Latest committed snapshot. Guards publication only; readers resolve
  /// through their pin or the raw pointer below.
  mutable std::mutex state_mu_;
  std::shared_ptr<const State> state_;
  /// Lock-free mirror of state_.get() for unpinned readers.
  std::atomic<const State*> state_raw_{nullptr};

  /// Open transaction (writer thread only), plus its clone-on-touch shared
  /// tables and the ids of every page it shadow-copied or composed (those
  /// are already private to the transaction and are modified in place).
  std::unique_ptr<State> work_;
  std::shared_ptr<TagDictionary> wtags_;
  std::shared_ptr<std::vector<std::string>> wvalues_;
  std::shared_ptr<std::vector<std::vector<NodeId>>> wpostings_;
  std::unordered_set<PageId> fresh_pages_;
  std::atomic<std::thread::id> writer_tid_{};

  static const std::vector<NodeId> empty_postings_;
  // Declared last: destroyed (joined and drained) before the pool it reads.
  std::unique_ptr<Readahead> readahead_;
};

/// What a page's in-memory header proves about one subject's access to it.
enum class PageVerdict : uint8_t {
  /// Every node in the page is inaccessible.
  kDead = 0,
  /// Every node in the page is accessible.
  kLive = 1,
  /// The change bit is set (embedded transitions): must look inside.
  kMixed = 2,
};

/// The one place a page header is classified for a subject (Section 3.3):
/// with the change bit clear every slot carries `info.first_code`, so the
/// subject's access to that code (`first_code_accessible`) decides the
/// whole page. SecureStore's PageWholly* tests, the secure cursor's page
/// skip, and the batch cursor's per-class dead masks all classify through
/// here, so no two page-skip paths can drift.
inline PageVerdict ClassifyPage(const NokStore::PageInfo& info,
                                bool first_code_accessible) {
  if (info.change_bit) return PageVerdict::kMixed;
  return first_code_accessible ? PageVerdict::kLive : PageVerdict::kDead;
}

/// Validates that node `n` lies inside the page described by `info`: the
/// directory entry is trusted (in-memory, validated at open), the node id
/// is not — corrupt subtree_size fields can aim navigation anywhere. The
/// one node-in-page check shared by NokStore's page-scoped lookups and the
/// scan cursors.
Status CheckNodeInPage(const NokStore::PageInfo& info, NodeId n);

}  // namespace secxml

#endif  // SECXML_NOK_NOK_STORE_H_
