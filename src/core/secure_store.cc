#include "core/secure_store.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>

#include "common/dcheck.h"
#include "exec/secure_cursor.h"

namespace secxml {

namespace {

// --- WAL payload / checkpoint-blob codec helpers (little-endian) ---------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void PutBytes(std::string* out, const std::vector<uint8_t>& b) {
  PutU32(out, static_cast<uint32_t>(b.size()));
  out->append(reinterpret_cast<const char*>(b.data()), b.size());
}

bool TakeU8(std::string_view in, size_t* pos, uint8_t* v) {
  if (*pos + 1 > in.size()) return false;
  *v = static_cast<uint8_t>(in[*pos]);
  *pos += 1;
  return true;
}

bool TakeU32(std::string_view in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  std::memcpy(v, in.data() + *pos, 4);
  *pos += 4;
  return true;
}

bool TakeU64(std::string_view in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  std::memcpy(v, in.data() + *pos, 8);
  *pos += 8;
  return true;
}

bool TakeStr(std::string_view in, size_t* pos, std::string* s) {
  uint32_t len = 0;
  if (!TakeU32(in, pos, &len) || *pos + len > in.size()) return false;
  s->assign(in.data() + *pos, len);
  *pos += len;
  return true;
}

bool TakeBytes(std::string_view in, size_t* pos, std::vector<uint8_t>* b) {
  uint32_t len = 0;
  if (!TakeU32(in, pos, &len) || *pos + len > in.size()) return false;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(in.data() + *pos);
  b->assign(p, p + len);
  *pos += len;
  return true;
}

/// Leading magic of a checkpoint blob ("SXCP" on disk); distinguishes the
/// wrapped [magic][lsn][codebook] form from a legacy bare codebook blob
/// (whose own magic differs).
constexpr uint32_t kCheckpointMagic = 0x50435853u;

std::vector<uint8_t> EncodeCheckpointBlob(const Codebook& cb, uint64_t lsn) {
  std::string head;
  PutU32(&head, kCheckpointMagic);
  PutU64(&head, lsn);
  std::vector<uint8_t> out(head.begin(), head.end());
  std::vector<uint8_t> body = cb.Serialize();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

Status DecodeStoreBlob(const std::vector<uint8_t>& blob, Codebook* cb,
                       uint64_t* lsn) {
  *lsn = 0;
  uint32_t magic = 0;
  if (blob.size() >= 12) std::memcpy(&magic, blob.data(), 4);
  if (magic == kCheckpointMagic) {
    std::memcpy(lsn, blob.data() + 4, 8);
    std::vector<uint8_t> body(blob.begin() + 12, blob.end());
    SECXML_ASSIGN_OR_RETURN(*cb, Codebook::Deserialize(body));
    return Status::OK();
  }
  // Legacy form: the blob is the codebook itself (pre-WAL Persist).
  SECXML_ASSIGN_OR_RETURN(*cb, Codebook::Deserialize(blob));
  return Status::OK();
}

/// Serializes a fragment document for the InsertSubtree WAL record
/// (Document has no native serialization; replay rebuilds it node by node).
std::string EncodeFragment(const Document& frag) {
  std::string out;
  PutU32(&out, frag.NumNodes());
  for (NodeId n = 0; n < frag.NumNodes(); ++n) {
    PutU32(&out, frag.SubtreeSize(n));
    PutStr(&out, frag.TagName(n));
    const bool has = frag.HasValue(n);
    PutU8(&out, has ? 1 : 0);
    if (has) PutStr(&out, frag.Value(n));
  }
  return out;
}

Status DecodeFragment(std::string_view in, size_t* pos, Document* out) {
  uint32_t num = 0;
  if (!TakeU32(in, pos, &num)) {
    return Status::Corruption("truncated fragment header in WAL record");
  }
  DocumentBuilder builder;
  std::vector<NodeId> ends;  // innermost-last exclusive subtree ends
  for (NodeId n = 0; n < num; ++n) {
    while (!ends.empty() && ends.back() == n) {
      SECXML_RETURN_NOT_OK(builder.EndElement());
      ends.pop_back();
    }
    uint32_t size = 0;
    std::string tag;
    uint8_t has = 0;
    if (!TakeU32(in, pos, &size) || !TakeStr(in, pos, &tag) ||
        !TakeU8(in, pos, &has)) {
      return Status::Corruption("truncated fragment node in WAL record");
    }
    if (size == 0 || n + size > num ||
        (!ends.empty() && n + size > ends.back())) {
      return Status::Corruption("malformed fragment subtree sizes");
    }
    builder.BeginElement(tag);
    if (has != 0) {
      std::string value;
      if (!TakeStr(in, pos, &value)) {
        return Status::Corruption("truncated fragment value in WAL record");
      }
      SECXML_RETURN_NOT_OK(builder.Text(value));
    }
    ends.push_back(n + size);
  }
  while (!ends.empty()) {
    SECXML_RETURN_NOT_OK(builder.EndElement());
    ends.pop_back();
  }
  return builder.Finish(out);
}

/// The thread's innermost-first chain of snapshot pins (across all stores;
/// codebook()/PinnedEpoch walk it looking for one on this store).
thread_local SecureStore::SnapshotPin* tl_secure_pins = nullptr;

}  // namespace

// --- SnapshotPin ---------------------------------------------------------

SecureStore::SnapshotPin::SnapshotPin(SecureStore* store)
    : store_(store), next_(tl_secure_pins) {
  // Adopt an enclosing pin's snapshot on this thread so nested pins never
  // straddle a commit; otherwise latch the latest committed snapshot under
  // snapshot_mu_, which makes (epoch, codebook, NokStore state) one
  // consistent triple even against a concurrent commit.
  SnapshotPin* outer = next_;
  while (outer != nullptr && outer->store_ != store) outer = outer->next_;
  if (outer != nullptr) {
    Adopt(*outer);
  } else {
    std::lock_guard<std::mutex> lock(store->snapshot_mu_);
    epoch_ = store->epochs_.PinCurrent();
    codebook_ = store->codebook_;
    nok_pin_.emplace(store->nok_.get());
  }
  tl_secure_pins = this;
}

SecureStore::SnapshotPin::SnapshotPin(SecureStore* store,
                                      const SnapshotPin& adopt)
    : store_(store), next_(tl_secure_pins) {
  SECXML_DCHECK(adopt.store_ == store);
  Adopt(adopt);
  tl_secure_pins = this;
}

void SecureStore::SnapshotPin::Adopt(const SnapshotPin& outer) {
  epoch_ = outer.epoch_;
  codebook_ = outer.codebook_;
  store_->epochs_.PinAt(epoch_);
  nok_pin_.emplace(store_->nok_.get(), *outer.nok_pin_);
}

SecureStore::SnapshotPin::~SnapshotPin() {
  SECXML_DCHECK(tl_secure_pins == this);
  tl_secure_pins = next_;
  nok_pin_.reset();
  store_->epochs_.Unpin(epoch_);
}

// --- Construction / open -------------------------------------------------

SecureStore::SecureStore(std::unique_ptr<NokStore> nok, Codebook codebook)
    : nok_(std::move(nok)),
      codebook_(std::make_shared<const Codebook>(std::move(codebook))) {
  codebook_raw_.store(codebook_.get(), std::memory_order_release);
}

SecureStore::~SecureStore() = default;

Status SecureStore::Build(const Document& doc, const DolLabeling& labeling,
                          PagedFile* file, const NokStoreOptions& options,
                          std::unique_ptr<SecureStore>* out) {
  if (labeling.num_nodes() != doc.NumNodes()) {
    return Status::InvalidArgument(
        "labeling does not match the document size");
  }
  SECXML_RETURN_NOT_OK(labeling.CheckInvariants());
  // NokStore::Build consults code_of in strict document order, so a cursor
  // over the transition list gives O(1) amortized code lookup.
  const std::vector<DolEntry>& ts = labeling.transitions();
  size_t cursor = 0;
  auto code_of = [&ts, &cursor](NodeId n) -> uint32_t {
    while (cursor + 1 < ts.size() && ts[cursor + 1].node <= n) ++cursor;
    return ts[cursor].code;
  };
  std::unique_ptr<NokStore> nok;
  SECXML_RETURN_NOT_OK(NokStore::Build(doc, file, options, code_of, &nok));
  out->reset(new SecureStore(std::move(nok), labeling.codebook()));
  return Status::OK();
}

Status SecureStore::Open(PagedFile* file, const NokStoreOptions& options,
                         std::unique_ptr<SecureStore>* out) {
  std::unique_ptr<NokStore> nok;
  std::vector<uint8_t> blob;
  SECXML_RETURN_NOT_OK(NokStore::Open(file, options, &nok, &blob));
  if (blob.empty()) {
    return Status::InvalidArgument(
        "file holds no codebook; use SecureStore::Persist() when saving");
  }
  Codebook codebook;
  uint64_t lsn = 0;
  SECXML_RETURN_NOT_OK(DecodeStoreBlob(blob, &codebook, &lsn));
  out->reset(new SecureStore(std::move(nok), std::move(codebook)));
  (*out)->applied_lsn_.store(lsn, std::memory_order_relaxed);
  return Status::OK();
}

Status SecureStore::BuildWithWal(const Document& doc,
                                 const DolLabeling& labeling,
                                 PagedFile* data_file, PagedFile* wal_file,
                                 const NokStoreOptions& options,
                                 std::unique_ptr<SecureStore>* out) {
  SECXML_RETURN_NOT_OK(Build(doc, labeling, data_file, options, out));
  SECXML_ASSIGN_OR_RETURN(std::unique_ptr<WriteAheadLog> wal,
                          WriteAheadLog::Open(wal_file));
  (*out)->wal_ = std::move(wal);
  // Seal the build with a durable checkpoint so recovery always has a base
  // snapshot to replay onto.
  return (*out)->Checkpoint();
}

Status SecureStore::OpenWithWal(PagedFile* data_file, PagedFile* wal_file,
                                const NokStoreOptions& options,
                                std::unique_ptr<SecureStore>* out,
                                RecoveryStats* recovery) {
  NokStoreOptions opts = options;
  opts.recover_superblock = true;
  std::unique_ptr<NokStore> nok;
  std::vector<uint8_t> blob;
  SECXML_RETURN_NOT_OK(NokStore::Open(data_file, opts, &nok, &blob));
  if (blob.empty()) {
    return Status::Corruption("recovered store holds no checkpoint blob");
  }
  Codebook codebook;
  uint64_t checkpoint_lsn = 0;
  SECXML_RETURN_NOT_OK(DecodeStoreBlob(blob, &codebook, &checkpoint_lsn));
  SECXML_ASSIGN_OR_RETURN(std::unique_ptr<WriteAheadLog> wal,
                          WriteAheadLog::Open(wal_file));
  std::unique_ptr<SecureStore> store(
      new SecureStore(std::move(nok), std::move(codebook)));
  store->wal_ = std::move(wal);
  store->applied_lsn_.store(checkpoint_lsn, std::memory_order_relaxed);

  RecoveryStats rs;
  rs.checkpoint_lsn = checkpoint_lsn;
  rs.records_in_log = store->wal_->num_records();
  rs.torn_tail = store->wal_->stats().torn_tail;
  store->recovering_ = true;
  Status replayed = store->wal_->Replay(
      checkpoint_lsn, [&](const WriteAheadLog::Record& rec) {
        Status st = store->ReplayRecord(rec);
        if (st.ok()) ++rs.records_replayed;
        return st;
      });
  store->recovering_ = false;
  if (recovery != nullptr) *recovery = rs;
  SECXML_RETURN_NOT_OK(replayed);
  *out = std::move(store);
  return Status::OK();
}

// --- Snapshot resolution -------------------------------------------------

const Codebook& SecureStore::codebook() const {
  // Mid-update the writer thread reads its own staged copy so staged
  // mutations compose; other threads never pass the tid test.
  if (writer_tid_.load(std::memory_order_relaxed) ==
          std::this_thread::get_id() &&
      wcodebook_ != nullptr) {
    return *wcodebook_;
  }
  for (SnapshotPin* p = tl_secure_pins; p != nullptr; p = p->next_) {
    if (p->store_ == this) return *p->codebook_;
  }
  return *codebook_raw_.load(std::memory_order_acquire);
}

EpochManager::Epoch SecureStore::PinnedEpoch() const {
  for (SnapshotPin* p = tl_secure_pins; p != nullptr; p = p->next_) {
    if (p->store_ == this) return p->epoch_;
  }
  return 0;
}

// --- Update transaction machinery ---------------------------------------

Status SecureStore::BeginStaged() {
  SECXML_RETURN_NOT_OK(nok_->BeginUpdate());
  // The staged codebook starts from the *committed* one (not a pinned
  // snapshot the calling thread might hold), so updates always stack on the
  // latest state.
  wcodebook_ = std::make_unique<Codebook>(
      *codebook_raw_.load(std::memory_order_acquire));
  writer_tid_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  return Status::OK();
}

void SecureStore::AbortStaged() {
  nok_->AbortUpdate();
  writer_tid_.store(std::thread::id(), std::memory_order_relaxed);
  wcodebook_.reset();
}

Status SecureStore::CommitStaged(uint32_t wal_type, const std::string& payload,
                                 CommitEvent event) {
  // WAL first: the record must be durable before any reader can observe the
  // update (write-ahead rule). A failed append aborts the whole update —
  // fail-closed, the committed snapshot never changed.
  uint64_t lsn = applied_lsn_.load(std::memory_order_relaxed);
  if (recovering_) {
    lsn = replay_lsn_;
  } else if (wal_ != nullptr) {
    Result<uint64_t> appended = wal_->Append(wal_type, payload);
    if (!appended.ok()) {
      AbortStaged();
      return appended.status();
    }
    lsn = appended.value();
  }

  std::shared_ptr<const Codebook> old_codebook;
  EpochManager::Epoch old_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    Status committed = nok_->CommitUpdate();
    if (!committed.ok()) {
      AbortStaged();
      return committed;
    }
    const size_t old_codes = codebook_->size();
    auto next = std::make_shared<const Codebook>(std::move(*wcodebook_));
    old_codebook = std::move(codebook_);
    codebook_ = next;
    codebook_raw_.store(next.get(), std::memory_order_release);
    wcodebook_.reset();
    writer_tid_.store(std::thread::id(), std::memory_order_relaxed);
    applied_lsn_.store(lsn, std::memory_order_relaxed);
    old_epoch = epochs_.current();
    EpochManager::Epoch new_epoch = epochs_.Advance();
    MaintainCaches(&event, *codebook_, new_epoch, old_codes);
    // External caches are told about the commit while snapshot_mu_ is still
    // held: a fresh SnapshotPin also takes snapshot_mu_, so no reader can
    // pin new_epoch before every hook has finished invalidating — the
    // stale-serve window is closed by lock order, not by timing.
    event.epoch = new_epoch;
    for (const auto& hook : commit_hooks_) hook(event);
  }
  // The superseded codebook lives until every reader pinned at or before
  // old_epoch drains (their SnapshotPins also hold their own shared_ptr, so
  // this retire is about bounding the retire queue, not correctness).
  epochs_.Retire(old_epoch,
                 [cb = std::move(old_codebook)]() mutable { cb.reset(); });
  (recovering_ ? counters_.updates_replayed : counters_.updates_applied)
      .fetch_add(1, std::memory_order_relaxed);
  counters_.epochs_advanced.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void SecureStore::MaintainCaches(CommitEvent* event, const Codebook& cb,
                                 EpochManager::Epoch new_epoch,
                                 size_t old_codebook_size) {
  std::lock_guard<std::mutex> hidden_lock(hidden_cache_mu_);
  std::lock_guard<std::mutex> column_lock(column_cache_mu_);
  // Updates other than shape changes only append codebook entries, so a
  // cached column is extended in place, never recomputed. Readers never
  // hold a reference into the cache (SubjectColumn hands out copies), so
  // growing the bit vector here cannot race with a scan in flight.
  auto extend_columns = [&] {
    for (auto& [subject, column] : column_cache_) {
      SECXML_DCHECK(column.size() == old_codebook_size);
      for (size_t code = old_codebook_size; code < cb.size(); ++code) {
        column.PushBack(
            cb.Accessible(static_cast<AccessCodeId>(code), subject));
      }
      counters_.columns_patched.fetch_add(1, std::memory_order_relaxed);
    }
  };
  switch (event->kind) {
    case CommitEvent::Kind::kShapeChange:
      // Codes or subjects renumbered: recompute everything lazily.
      hidden_cache_.clear();
      column_cache_.clear();
      break;
    case CommitEvent::Kind::kSubjectAdded:
      // A new subject column changes nothing an existing subject's column
      // or hidden intervals depend on — restamp only.
      break;
    case CommitEvent::Kind::kAclPatch: {
      // Only the updated subject's per-node accessibility changed (every
      // remapped entry differs from its original in that subject's bit
      // alone) and the tree did not, so every other subject's hidden
      // intervals carry over to the new epoch.
      hidden_cache_.erase(event->subject);
      extend_columns();
      const BitVector* column = CachedColumnLocked(cb, event->subject);
      if (column != nullptr) {
        event->fingerprint = ColumnFingerprint::Of(*column);
      }
      if (cb.size() > old_codebook_size) {
        counters_.acl_patches_appending.fetch_add(1,
                                                  std::memory_order_relaxed);
      }
      break;
    }
    case CommitEvent::Kind::kStructural:
      // Hidden intervals are whole-document aggregates over the tree;
      // recompute lazily. (A vacuum appends no entries: the extension is
      // then a no-op.)
      hidden_cache_.clear();
      extend_columns();
      break;
  }
  hidden_cache_epoch_ = new_epoch;
  column_cache_epoch_ = new_epoch;
}

// --- Mutators ------------------------------------------------------------

Status SecureStore::SetSubtreeAccess(NodeId root, SubjectId subject,
                                     bool accessible) {
  std::lock_guard<std::mutex> lock(update_mu_);
  SECXML_RETURN_NOT_OK(BeginStaged());
  // Resolve the subtree against the staged state (== committed at this
  // point) so the logged range is exact, making replay deterministic.
  Result<NokRecord> rec = nok_->Record(root);
  if (!rec.ok()) {
    AbortStaged();
    return rec.status();
  }
  const NodeId end = root + rec->subtree_size;
  Status staged = SetRangeAccessStaged(root, end, subject, accessible);
  if (!staged.ok()) {
    AbortStaged();
    return staged;
  }
  std::string payload;
  PutU64(&payload, root);
  PutU64(&payload, end);
  PutU32(&payload, subject);
  PutU8(&payload, accessible ? 1 : 0);
  return CommitStaged(kWalSetRangeAccess, payload,
                      {.kind = CommitEvent::Kind::kAclPatch,
                       .begin = root,
                       .end = end,
                       .subject = subject});
}

Status SecureStore::SetRangeAccess(NodeId begin, NodeId end, SubjectId subject,
                                   bool accessible) {
  std::lock_guard<std::mutex> lock(update_mu_);
  return SetRangeAccessLocked(begin, end, subject, accessible);
}

Status SecureStore::SetRangeAccessLocked(NodeId begin, NodeId end,
                                         SubjectId subject, bool accessible) {
  SECXML_RETURN_NOT_OK(BeginStaged());
  Status staged = SetRangeAccessStaged(begin, end, subject, accessible);
  if (!staged.ok()) {
    AbortStaged();
    return staged;
  }
  std::string payload;
  PutU64(&payload, begin);
  PutU64(&payload, end);
  PutU32(&payload, subject);
  PutU8(&payload, accessible ? 1 : 0);
  return CommitStaged(kWalSetRangeAccess, payload,
                      {.kind = CommitEvent::Kind::kAclPatch,
                       .begin = begin,
                       .end = end,
                       .subject = subject});
}

Status SecureStore::SetRangeAccessStaged(NodeId begin, NodeId end,
                                         SubjectId subject, bool accessible) {
  if (begin >= end || end > nok_->num_nodes()) {
    return Status::InvalidArgument("bad node range");
  }
  Codebook& cb = *wcodebook_;
  if (subject >= cb.num_subjects()) {
    return Status::InvalidArgument("no such subject");
  }
  std::unordered_map<AccessCodeId, AccessCodeId> mapped;
  auto map_code = [&](AccessCodeId old) {
    auto it = mapped.find(old);
    if (it != mapped.end()) return it->second;
    BitVector acl = cb.Entry(old);
    acl.Set(subject, accessible);
    AccessCodeId neu = cb.Intern(acl);
    mapped.emplace(old, neu);
    return neu;
  };

  size_t ordinal = nok_->PageOrdinalOf(begin);
  while (ordinal < nok_->num_pages() &&
         nok_->page_infos()[ordinal].first_node < end) {
    const NokStore::PageInfo info = nok_->page_infos()[ordinal];
    NodeId page_begin = info.first_node;
    NodeId page_end = info.first_node + info.num_records;

    // Decompose the page into runs of equal code.
    SECXML_ASSIGN_OR_RETURN(std::vector<DolTransition> old_ts,
                            nok_->PageTransitions(ordinal));
    struct Run {
      NodeId start;
      AccessCodeId code;
    };
    std::vector<Run> runs;
    runs.push_back({page_begin, info.first_code});
    for (const DolTransition& t : old_ts) {
      runs.push_back({page_begin + t.slot, t.code});
    }

    // Split runs at the range boundaries, then remap the covered parts.
    std::vector<Run> new_runs;
    for (size_t i = 0; i < runs.size(); ++i) {
      NodeId run_start = runs[i].start;
      NodeId run_end = i + 1 < runs.size() ? runs[i + 1].start : page_end;
      AccessCodeId code = runs[i].code;
      NodeId cut1 = std::clamp(begin, run_start, run_end);
      NodeId cut2 = std::clamp(end, run_start, run_end);
      if (cut1 > run_start) new_runs.push_back({run_start, code});
      if (cut2 > cut1) new_runs.push_back({cut1, map_code(code)});
      if (run_end > cut2) new_runs.push_back({cut2, code});
    }

    // Collapse duplicates and rebuild the page's ACL region.
    uint32_t first_code = new_runs.front().code;
    std::vector<DolTransition> new_ts;
    AccessCodeId prev = first_code;
    for (size_t i = 1; i < new_runs.size(); ++i) {
      if (new_runs[i].code == prev) continue;
      new_ts.push_back(DolTransition{
          static_cast<uint16_t>(new_runs[i].start - page_begin), 0,
          new_runs[i].code});
      prev = new_runs[i].code;
    }
    size_t pages_before = nok_->num_pages();
    SECXML_RETURN_NOT_OK(nok_->SetPageAcl(ordinal, first_code, new_ts));
    // A split distributes the new ACL over both halves; skip past them.
    ordinal += (nok_->num_pages() > pages_before) ? 2 : 1;
  }
  return Status::OK();
}

Status SecureStore::DeleteSubtree(NodeId root) {
  std::lock_guard<std::mutex> lock(update_mu_);
  return DeleteSubtreeLocked(root);
}

Status SecureStore::DeleteSubtreeLocked(NodeId root) {
  SECXML_RETURN_NOT_OK(BeginStaged());
  Status staged = nok_->DeleteSubtree(root);  // runs inside our transaction
  if (!staged.ok()) {
    AbortStaged();
    return staged;
  }
  std::string payload;
  PutU64(&payload, root);
  return CommitStaged(kWalDeleteSubtree, payload,
                      {.kind = CommitEvent::Kind::kStructural});
}

Result<NodeId> SecureStore::InsertSubtree(
    NodeId parent, NodeId after, const Document& fragment,
    const DolLabeling& fragment_labeling) {
  std::lock_guard<std::mutex> lock(update_mu_);
  return InsertSubtreeLocked(parent, after, fragment, fragment_labeling);
}

Result<NodeId> SecureStore::InsertSubtreeLocked(
    NodeId parent, NodeId after, const Document& fragment,
    const DolLabeling& fragment_labeling) {
  if (fragment_labeling.num_nodes() != fragment.NumNodes()) {
    return Status::InvalidArgument(
        "fragment labeling does not match the fragment size");
  }
  // A malformed labeling (no transition at node 0, descending nodes) would
  // otherwise make the CodeAt calls below misresolve codes.
  SECXML_RETURN_NOT_OK(fragment_labeling.CheckInvariants());
  SECXML_RETURN_NOT_OK(BeginStaged());
  if (fragment_labeling.codebook().num_subjects() !=
      wcodebook_->num_subjects()) {
    AbortStaged();
    return Status::InvalidArgument("fragment has a different subject set");
  }
  // Re-intern the fragment's codes into this store's codebook once.
  std::unordered_map<AccessCodeId, uint32_t> mapped;
  auto code_of = [this, &fragment_labeling, &mapped](NodeId f) -> uint32_t {
    AccessCodeId frag_code = fragment_labeling.CodeAt(f);
    auto it = mapped.find(frag_code);
    if (it != mapped.end()) return it->second;
    uint32_t code =
        wcodebook_->Intern(fragment_labeling.codebook().Entry(frag_code));
    mapped.emplace(frag_code, code);
    return code;
  };
  Result<NodeId> landed =
      nok_->InsertSubtree(parent, after, fragment, code_of);
  if (!landed.ok()) {
    AbortStaged();
    return landed.status();
  }
  std::string payload;
  PutU64(&payload, parent);
  PutU64(&payload, after);
  payload += EncodeFragment(fragment);
  PutBytes(&payload, fragment_labeling.Serialize());
  SECXML_RETURN_NOT_OK(
      CommitStaged(kWalInsertSubtree, payload,
                   {.kind = CommitEvent::Kind::kStructural}));
  return landed.value();
}

Result<SubjectId> SecureStore::AddSubject(bool default_access) {
  std::lock_guard<std::mutex> lock(update_mu_);
  return AddSubjectLocked(default_access);
}

Result<SubjectId> SecureStore::AddSubjectLocked(bool default_access) {
  SECXML_RETURN_NOT_OK(BeginStaged());
  SubjectId id = wcodebook_->AddSubject(default_access);
  std::string payload;
  PutU8(&payload, default_access ? 1 : 0);
  SECXML_RETURN_NOT_OK(
      CommitStaged(kWalAddSubject, payload,
                   {.kind = CommitEvent::Kind::kSubjectAdded}));
  return id;
}

Result<SubjectId> SecureStore::AddSubjectLike(SubjectId like) {
  std::lock_guard<std::mutex> lock(update_mu_);
  return AddSubjectLikeLocked(like);
}

Result<SubjectId> SecureStore::AddSubjectLikeLocked(SubjectId like) {
  SECXML_RETURN_NOT_OK(BeginStaged());
  Result<SubjectId> id = wcodebook_->AddSubjectLike(like);
  if (!id.ok()) {
    AbortStaged();
    return id.status();
  }
  std::string payload;
  PutU32(&payload, like);
  SECXML_RETURN_NOT_OK(
      CommitStaged(kWalAddSubjectLike, payload,
                   {.kind = CommitEvent::Kind::kSubjectAdded}));
  return id.value();
}

Status SecureStore::RemoveSubject(SubjectId subject) {
  std::lock_guard<std::mutex> lock(update_mu_);
  return RemoveSubjectLocked(subject);
}

Status SecureStore::RemoveSubjectLocked(SubjectId subject) {
  SECXML_RETURN_NOT_OK(BeginStaged());
  Status staged = wcodebook_->RemoveSubject(subject);
  if (!staged.ok()) {
    AbortStaged();
    return staged;
  }
  std::string payload;
  PutU32(&payload, subject);
  // Remaining subjects renumber: columns and hidden intervals are keyed by
  // subject id, so everything recomputes lazily under the new epoch.
  return CommitStaged(kWalRemoveSubject, payload,
                      {.kind = CommitEvent::Kind::kShapeChange});
}

Status SecureStore::CompactCodebook() {
  std::lock_guard<std::mutex> lock(update_mu_);
  return CompactCodebookLocked();
}

Status SecureStore::CompactCodebookLocked() {
  SECXML_RETURN_NOT_OK(BeginStaged());
  std::vector<AccessCodeId> mapping;
  Codebook compacted = wcodebook_->Compacted(&mapping);
  // One sequential pass over the staged directory. Pinned readers keep
  // resolving codes against the pre-compaction snapshot until commit; no
  // prefetch sweep here because background workers resolve ordinals against
  // the committed state, not the staged one.
  for (size_t ordinal = 0; ordinal < nok_->num_pages(); ++ordinal) {
    const NokStore::PageInfo info = nok_->page_infos()[ordinal];
    Result<std::vector<DolTransition>> ts = nok_->PageTransitions(ordinal);
    if (!ts.ok()) {
      AbortStaged();
      return ts.status();
    }
    uint32_t first_code = mapping[info.first_code];
    bool changed = first_code != info.first_code;
    // Remap and drop transitions that became no-ops.
    std::vector<DolTransition> remapped;
    uint32_t prev = first_code;
    for (DolTransition t : *ts) {
      uint32_t neu = mapping[t.code];
      changed |= neu != t.code;
      if (neu == prev) {
        changed = true;  // a merged transition disappears
        continue;
      }
      t.code = neu;
      remapped.push_back(t);
      prev = neu;
    }
    if (changed) {
      Status staged =
          nok_->SetPageAcl(ordinal, first_code, std::move(remapped));
      if (!staged.ok()) {
        AbortStaged();
        return staged;
      }
    }
  }
  *wcodebook_ = std::move(compacted);
  return CommitStaged(kWalCompactCodebook, std::string(),
                      {.kind = CommitEvent::Kind::kShapeChange});
}

Status SecureStore::Vacuum(const VacuumOptions& options, VacuumStats* stats) {
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    SECXML_RETURN_NOT_OK(VacuumLocked(options, stats));
  }
  // The vacuum rewrote every page; checkpointing immediately bounds the log
  // (recovery replaying the wholesale rewrite works, it is just slower).
  if (options.checkpoint_after) return Checkpoint();
  return Status::OK();
}

Status SecureStore::VacuumLocked(const VacuumOptions& options,
                                 VacuumStats* stats) {
  SECXML_RETURN_NOT_OK(BeginStaged());
  const size_t pages_before = nok_->num_pages();
  size_t homogeneous_before = 0;
  for (size_t ordinal = 0; ordinal < pages_before; ++ordinal) {
    if (!nok_->page_infos()[ordinal].change_bit) ++homogeneous_before;
  }
  VacuumPlan plan;
  Status repacked = nok_->Repack(options.min_run_records, &plan);
  if (!repacked.ok()) {
    AbortStaged();
    return repacked;
  }
  // The record carries only the planner input: replay re-reads the staged
  // pages and re-runs the deterministic planner, like every logical redo.
  std::string payload;
  PutU32(&payload, options.min_run_records);
  SECXML_RETURN_NOT_OK(
      CommitStaged(kWalVacuum, payload,
                   {.kind = CommitEvent::Kind::kStructural}));
  if (stats != nullptr) {
    stats->pages_before = pages_before;
    stats->pages_after = plan.page_starts.size();
    stats->homogeneous_pages_before = homogeneous_before;
    stats->homogeneous_pages_after = plan.homogeneous_pages;
    stats->transitions_after = plan.transitions;
  }
  return Status::OK();
}

// --- WAL replay ----------------------------------------------------------

Status SecureStore::ReplayRecord(const WriteAheadLog::Record& record) {
  std::lock_guard<std::mutex> lock(update_mu_);
  replay_lsn_ = record.lsn;
  std::string_view p(record.payload);
  size_t pos = 0;
  switch (record.type) {
    case kWalSetRangeAccess: {
      uint64_t begin = 0, end = 0;
      uint32_t subject = 0;
      uint8_t accessible = 0;
      if (!TakeU64(p, &pos, &begin) || !TakeU64(p, &pos, &end) ||
          !TakeU32(p, &pos, &subject) || !TakeU8(p, &pos, &accessible) ||
          pos != p.size()) {
        return Status::Corruption("malformed SetRangeAccess WAL record");
      }
      return SetRangeAccessLocked(static_cast<NodeId>(begin),
                                  static_cast<NodeId>(end), subject,
                                  accessible != 0);
    }
    case kWalAddSubject: {
      uint8_t default_access = 0;
      if (!TakeU8(p, &pos, &default_access) || pos != p.size()) {
        return Status::Corruption("malformed AddSubject WAL record");
      }
      Result<SubjectId> id = AddSubjectLocked(default_access != 0);
      return id.ok() ? Status::OK() : id.status();
    }
    case kWalAddSubjectLike: {
      uint32_t like = 0;
      if (!TakeU32(p, &pos, &like) || pos != p.size()) {
        return Status::Corruption("malformed AddSubjectLike WAL record");
      }
      Result<SubjectId> id = AddSubjectLikeLocked(like);
      return id.ok() ? Status::OK() : id.status();
    }
    case kWalRemoveSubject: {
      uint32_t subject = 0;
      if (!TakeU32(p, &pos, &subject) || pos != p.size()) {
        return Status::Corruption("malformed RemoveSubject WAL record");
      }
      return RemoveSubjectLocked(subject);
    }
    case kWalDeleteSubtree: {
      uint64_t root = 0;
      if (!TakeU64(p, &pos, &root) || pos != p.size()) {
        return Status::Corruption("malformed DeleteSubtree WAL record");
      }
      return DeleteSubtreeLocked(static_cast<NodeId>(root));
    }
    case kWalInsertSubtree: {
      uint64_t parent = 0, after = 0;
      if (!TakeU64(p, &pos, &parent) || !TakeU64(p, &pos, &after)) {
        return Status::Corruption("malformed InsertSubtree WAL record");
      }
      Document fragment;
      SECXML_RETURN_NOT_OK(DecodeFragment(p, &pos, &fragment));
      std::vector<uint8_t> labeling_bytes;
      if (!TakeBytes(p, &pos, &labeling_bytes) || pos != p.size()) {
        return Status::Corruption("malformed InsertSubtree WAL record");
      }
      SECXML_ASSIGN_OR_RETURN(DolLabeling labeling,
                              DolLabeling::Deserialize(labeling_bytes));
      Result<NodeId> landed =
          InsertSubtreeLocked(static_cast<NodeId>(parent),
                              static_cast<NodeId>(after), fragment, labeling);
      return landed.ok() ? Status::OK() : landed.status();
    }
    case kWalCompactCodebook: {
      if (!p.empty()) {
        return Status::Corruption("malformed CompactCodebook WAL record");
      }
      return CompactCodebookLocked();
    }
    case kWalVacuum: {
      uint32_t min_run = 0;
      if (!TakeU32(p, &pos, &min_run) || pos != p.size()) {
        return Status::Corruption("malformed Vacuum WAL record");
      }
      VacuumOptions opts;
      opts.min_run_records = min_run;
      opts.checkpoint_after = false;  // recovery never truncates mid-replay
      return VacuumLocked(opts, nullptr);
    }
    default:
      return Status::Corruption("unknown WAL record type");
  }
}

// --- Durability ----------------------------------------------------------

Status SecureStore::Persist() {
  std::lock_guard<std::mutex> lock(update_mu_);
  return PersistLocked();
}

Status SecureStore::PersistLocked() {
  const Codebook* cb = codebook_raw_.load(std::memory_order_acquire);
  return nok_->Persist(
      EncodeCheckpointBlob(*cb, applied_lsn_.load(std::memory_order_relaxed)));
}

Status SecureStore::Checkpoint() {
  std::lock_guard<std::mutex> lock(update_mu_);
  SECXML_RETURN_NOT_OK(PersistLocked());
  if (wal_ != nullptr) SECXML_RETURN_NOT_OK(wal_->Truncate());
  counters_.checkpoints.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

// --- Pinned read paths ---------------------------------------------------

Result<bool> SecureStore::Accessible(SubjectId subject, NodeId node) {
  SnapshotPin pin(this);
  const Codebook& cb = codebook();
  if (subject >= cb.num_subjects()) {
    return Status::InvalidArgument("no such subject");
  }
  SECXML_ASSIGN_OR_RETURN(uint32_t code, nok_->AccessCode(node));
  return cb.Accessible(code, subject);
}

Result<BitVector> SecureStore::SubjectColumn(SubjectId subject) {
  SnapshotPin pin(this);
  const Codebook& cb = codebook();
  if (subject >= cb.num_subjects()) {
    return Status::InvalidArgument("no such subject");
  }
  // A caller at an older epoch than the cache serves (stamp mismatch)
  // computes from its pinned codebook without polluting the cache.
  std::lock_guard<std::mutex> lock(column_cache_mu_);
  if (column_cache_epoch_ != pin.epoch()) return cb.Column(subject);
  return *CachedColumnLocked(cb, subject);
}

const BitVector* SecureStore::CachedColumnLocked(const Codebook& cb,
                                                 SubjectId subject) {
  auto it = column_cache_.find(subject);
  if (it != column_cache_.end()) return &it->second;
  // Unknown ids get no entry: a later AddSubject could make the id valid
  // with different rights than the fail-closed all-denied column.
  if (subject >= cb.num_subjects()) return nullptr;
  return &column_cache_.emplace(subject, cb.Column(subject)).first->second;
}

Result<std::shared_ptr<const std::vector<NodeInterval>>>
SecureStore::HiddenSubtreeIntervals(SubjectId subject, ExecStats* stats) {
  SnapshotPin pin(this);
  const Codebook& cb = codebook();
  if (subject >= cb.num_subjects()) {
    return Status::InvalidArgument("no such subject");
  }
  {
    std::lock_guard<std::mutex> lock(hidden_cache_mu_);
    if (hidden_cache_epoch_ == pin.epoch()) {
      auto it = hidden_cache_.find(subject);
      if (it != hidden_cache_.end()) return it->second;
    }
  }
  // Sweep unlocked: a commit's MaintainCaches takes this mutex under
  // snapshot_mu_, so holding it across the sweep's page I/O would stall
  // the commit, and every new SnapshotPin behind it, on a reader's reads.
  SECXML_ASSIGN_OR_RETURN(std::vector<NodeInterval> swept,
                          ComputeHiddenSubtreeIntervals(subject, stats));
  auto hidden =
      std::make_shared<const std::vector<NodeInterval>>(std::move(swept));
  std::lock_guard<std::mutex> lock(hidden_cache_mu_);
  // Keep the answer only if no commit moved the cache past the pinned
  // epoch during the sweep (a racing sweep may have inserted it already).
  if (hidden_cache_epoch_ == pin.epoch()) {
    hidden_cache_.emplace(subject, hidden);
  }
  return hidden;
}

Result<std::vector<NodeInterval>> SecureStore::ComputeHiddenSubtreeIntervals(
    SubjectId subject, ExecStats* stats) {
  // The subject's column answers the inner per-code test with one bit
  // load.
  SECXML_ASSIGN_OR_RETURN(const BitVector column, SubjectColumn(subject));
  auto code_accessible = [&column](uint32_t code) {
    return code < column.size() && column.GetUnchecked(code);
  };
  auto wholly_live = [&](size_t ordinal) {
    const NokStore::PageInfo& info = nok_->page_infos()[ordinal];
    return ClassifyPage(info, code_accessible(info.first_code)) ==
           PageVerdict::kLive;
  };
  std::vector<NodeInterval> hidden;
  NodeId blocked_end = 0;  // exclusive end of the current hidden interval

  // Page-scoped iteration through the exec layer: the sweep visits pages
  // in document order and (mostly) fetches those the header cannot prove
  // wholly live, so stream those in ahead of the cursor. Wholly-live pages
  // are only ever fetched when a hidden subtree spills into them — rare
  // enough that missing the prefetch there just costs a synchronous read.
  // The sweep's destructor drains every in-flight fetch before we return,
  // so no background read outlives the sweep (the no-overlap-with-
  // exclusive-updates contract).
  ExecStats local;
  if (stats == nullptr) stats = &local;
  PageSweep sweep(nok_.get(), wholly_live, stats);

  for (size_t ordinal = 0; ordinal < nok_->num_pages(); ++ordinal) {
    const NokStore::PageInfo& info = nok_->page_infos()[ordinal];
    NodeId page_begin = info.first_node;
    NodeId page_end = info.first_node + info.num_records;
    // Page skip from the header: a page whose every node is accessible
    // beyond any hidden subtree cannot start a new hidden interval. Not
    // counted as pages_skipped — that counter belongs to the matcher's
    // cursor (see HiddenSubtreeIntervals).
    if (wholly_live(ordinal) && page_begin >= blocked_end) continue;
    // A uniformly *inaccessible* page fully covered by the current hidden
    // interval also needs no inspection.
    if (page_end <= blocked_end) continue;

    sweep.PrefetchFrom(ordinal);
    SECXML_ASSIGN_OR_RETURN(PageHandle handle, sweep.Fetch(ordinal));
    SECXML_ASSIGN_OR_RETURN(PageCodes codes,
                            PageCodes::Decode(handle.page(), info.page_id));
    // The walker must see every slot (codes resolve from the run in
    // effect), so slots inside an already-hidden subtree still advance it
    // — they are just not probed or counted.
    PageCodeWalker walker(codes);
    for (uint32_t slot = 0; slot < codes.header().num_records; ++slot) {
      uint32_t code = walker.CodeFor(slot);
      NodeId n = page_begin + slot;
      if (n < blocked_end) continue;  // inside an already-hidden subtree
      ++stats->nodes_scanned;
      ++stats->codes_checked;
      if (code_accessible(code)) continue;
      NokRecord rec = codes.RecordAt(slot);
      NodeId subtree_end = n + rec.subtree_size;
      if (!hidden.empty() && hidden.back().end == n) {
        hidden.back().end = subtree_end;  // adjacent subtrees merge
      } else {
        hidden.push_back({n, subtree_end});
      }
      blocked_end = subtree_end;
    }
  }
  return hidden;
}

std::vector<SubjectClass> SecureStore::GroupSubjects(
    const std::vector<SubjectId>& subjects) {
  SnapshotPin pin(this);
  const Codebook& cb = codebook();
  std::unique_lock<std::mutex> lock(column_cache_mu_);
  if (column_cache_epoch_ != pin.epoch()) {
    // Pinned at an older epoch than the cache serves: group directly from
    // the pinned codebook without touching the cache.
    lock.unlock();
    return GroupSubjectsByColumn(cb, subjects);
  }
  // Mirror GroupSubjectsByColumn exactly (first-occurrence class order),
  // serving columns from the cache. Out-of-range subjects get the fail-
  // closed all-denied column, which is never cached.
  std::vector<SubjectClass> classes;
  std::unordered_map<BitVector, size_t, BitVectorHash> index;
  std::deque<BitVector> scratch;  // stable addresses for uncached columns
  for (SubjectId s : subjects) {
    const BitVector* column = CachedColumnLocked(cb, s);
    if (column == nullptr) {
      scratch.push_back(cb.Column(s));
      column = &scratch.back();
    }
    auto [cit, inserted] = index.emplace(*column, classes.size());
    if (inserted) {
      classes.emplace_back();
      classes.back().fingerprint = ColumnFingerprint::Of(*column);
    }
    classes[cit->second].members.push_back(s);
  }
  return classes;
}

void SecureStore::AddCommitHook(
    std::function<void(const CommitEvent&)> hook) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  commit_hooks_.push_back(std::move(hook));
}

ColumnFingerprint SecureStore::SubjectColumnFingerprint(SubjectId subject) {
  SnapshotPin pin(this);
  const Codebook& cb = codebook();
  std::unique_lock<std::mutex> lock(column_cache_mu_);
  if (column_cache_epoch_ == pin.epoch()) {
    if (const BitVector* column = CachedColumnLocked(cb, subject)) {
      return ColumnFingerprint::Of(*column);
    }
  }
  lock.unlock();
  return cb.ColumnFingerprintOf(subject);
}

void SecureStore::DropVisibilityCaches() {
  std::lock_guard<std::mutex> hidden_lock(hidden_cache_mu_);
  std::lock_guard<std::mutex> column_lock(column_cache_mu_);
  hidden_cache_.clear();
  column_cache_.clear();
}

Result<DolLabeling> SecureStore::ExtractLabeling() {
  SnapshotPin pin(this);
  const Codebook& cb = codebook();
  // Reconstruct per-node codes from the pages, then rebuild a labeling via
  // a map adapter so invariants (normalization) are re-established.
  class CodeMap final : public AccessibilityMap {
   public:
    CodeMap(const Codebook* cb, std::vector<AccessCodeId> codes)
        : cb_(cb), codes_(std::move(codes)) {}
    size_t num_subjects() const override { return cb_->num_subjects(); }
    NodeId num_nodes() const override {
      return static_cast<NodeId>(codes_.size());
    }
    bool Accessible(SubjectId s, NodeId n) const override {
      return cb_->Accessible(codes_[n], s);
    }
    void AclFor(NodeId n, BitVector* out) const override {
      *out = cb_->Entry(codes_[n]);
    }

   private:
    const Codebook* cb_;
    std::vector<AccessCodeId> codes_;
  };

  std::vector<AccessCodeId> codes(nok_->num_nodes());
  for (size_t ordinal = 0; ordinal < nok_->num_pages(); ++ordinal) {
    const NokStore::PageInfo& info = nok_->page_infos()[ordinal];
    SECXML_ASSIGN_OR_RETURN(std::vector<DolTransition> ts,
                            nok_->PageTransitions(ordinal));
    uint32_t code = info.first_code;
    size_t next = 0;
    for (uint16_t slot = 0; slot < info.num_records; ++slot) {
      if (next < ts.size() && ts[next].slot == slot) {
        code = ts[next].code;
        ++next;
      }
      codes[info.first_node + slot] = code;
    }
  }
  return DolLabeling::Build(CodeMap(&cb, std::move(codes)));
}

SecureStore::UpdateStats SecureStore::update_stats() const {
  UpdateStats s;
  s.updates_applied =
      counters_.updates_applied.load(std::memory_order_relaxed);
  s.updates_replayed =
      counters_.updates_replayed.load(std::memory_order_relaxed);
  s.epochs_advanced =
      counters_.epochs_advanced.load(std::memory_order_relaxed);
  s.columns_patched =
      counters_.columns_patched.load(std::memory_order_relaxed);
  s.acl_patches_appending =
      counters_.acl_patches_appending.load(std::memory_order_relaxed);
  s.checkpoints = counters_.checkpoints.load(std::memory_order_relaxed);
  return s;
}

}  // namespace secxml
