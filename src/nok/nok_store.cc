#include "nok/nok_store.h"

#include <algorithm>
#include <cassert>

#include "common/dcheck.h"

namespace secxml {

namespace {

// Superblock magic ("SXNK") marking a Persist() snapshot in a file's last
// page. The superblock stores counts plus the id range of the blob pages
// holding the serialized page directory and tag dictionary.
constexpr uint32_t kSuperMagic = 0x53584e4bu;

struct Superblock {
  uint32_t magic = kSuperMagic;
  uint32_t version = 1;
  uint32_t num_nodes = 0;
  uint32_t dir_entries = 0;
  uint32_t blob_start = 0;
  uint32_t blob_pages = 0;
  uint64_t payload_bytes = 0;
};
static_assert(sizeof(Superblock) == 32);

void AppendU32(std::vector<uint8_t>* blob, uint32_t v) {
  blob->insert(blob->end(), reinterpret_cast<const uint8_t*>(&v),
               reinterpret_cast<const uint8_t*>(&v) + sizeof(v));
}

uint32_t ReadU32(const std::vector<uint8_t>& blob, size_t* pos) {
  uint32_t v;
  std::memcpy(&v, blob.data() + *pos, sizeof(v));
  *pos += sizeof(v);
  return v;
}

/// Writes a page image from parts. `transitions` must be slot-ascending.
void ComposePage(const NokPageHeader& header,
                 const NokRecord* records,
                 const std::vector<DolTransition>& transitions, Page* page) {
  page->Zero();
  page->WriteAt(0, header);
  for (uint32_t i = 0; i < header.num_records; ++i) {
    page->WriteAt(RecordOffset(i), records[i]);
  }
  for (uint32_t i = 0; i < transitions.size(); ++i) {
    page->WriteAt(TransitionOffset(i), transitions[i]);
  }
}

/// Everything a superblock restores, parsed into temporaries so a recovery
/// scan can discard a torn candidate and keep looking.
struct ParsedSuper {
  std::vector<PageId> directory;
  TagDictionary tags;
  std::vector<std::string> values;
  std::vector<uint8_t> user_blob;
};

/// Validates `super` (already read from a candidate page) and parses its
/// blob pages. Returns Corruption for any inconsistency.
Status ParseSuperblock(BufferPool* pool, PagedFile* file,
                       const Superblock& super, ParsedSuper* out) {
  if (super.version != 1 ||
      super.blob_start + super.blob_pages > file->NumPages() ||
      super.payload_bytes >
          static_cast<uint64_t>(super.blob_pages) * kPageSize) {
    return Status::Corruption("invalid superblock");
  }
  std::vector<uint8_t> blob(super.payload_bytes);
  size_t read = 0;
  for (uint32_t i = 0; i < super.blob_pages; ++i) {
    SECXML_ASSIGN_OR_RETURN(PageHandle page, pool->Fetch(super.blob_start + i));
    size_t chunk = std::min(kPageSize, blob.size() - read);
    std::memcpy(blob.data() + read, page.page().data.data(), chunk);
    read += chunk;
  }
  size_t pos = 0;
  if (blob.size() < static_cast<size_t>(super.dir_entries) * 4 + 4) {
    return Status::Corruption("truncated superblock payload");
  }
  for (uint32_t i = 0; i < super.dir_entries; ++i) {
    out->directory.push_back(ReadU32(blob, &pos));
  }
  uint32_t tag_count = ReadU32(blob, &pos);
  for (uint32_t t = 0; t < tag_count; ++t) {
    if (pos + 4 > blob.size()) {
      return Status::Corruption("truncated tag dictionary");
    }
    uint32_t len = ReadU32(blob, &pos);
    if (pos + len > blob.size()) {
      return Status::Corruption("truncated tag dictionary");
    }
    out->tags.Intern(std::string_view(
        reinterpret_cast<const char*>(blob.data() + pos), len));
    pos += len;
  }
  if (pos + 4 > blob.size()) {
    return Status::Corruption("truncated value pool");
  }
  uint32_t value_count = ReadU32(blob, &pos);
  out->values.reserve(value_count);
  for (uint32_t v = 0; v < value_count; ++v) {
    if (pos + 4 > blob.size()) {
      return Status::Corruption("truncated value pool");
    }
    uint32_t len = ReadU32(blob, &pos);
    if (pos + len > blob.size()) {
      return Status::Corruption("truncated value pool");
    }
    out->values.emplace_back(reinterpret_cast<const char*>(blob.data() + pos),
                             len);
    pos += len;
  }
  if (pos + 4 > blob.size()) {
    return Status::Corruption("truncated user blob");
  }
  uint32_t user_len = ReadU32(blob, &pos);
  if (pos + user_len > blob.size()) {
    return Status::Corruption("truncated user blob");
  }
  out->user_blob.assign(blob.begin() + static_cast<long>(pos),
                        blob.begin() + static_cast<long>(pos + user_len));
  return Status::OK();
}

/// The thread's innermost-first chain of snapshot pins (across all stores;
/// read_state walks it looking for this store).
thread_local NokStore::ReadPin* tl_pins = nullptr;

}  // namespace

const std::vector<NodeId> NokStore::empty_postings_;

NokStore::NokStore(PagedFile* file, const NokStoreOptions& options)
    : options_(options),
      pool_(file, options.buffer_pool_pages, options.buffer_pool_shards),
      state_(std::make_shared<const State>()) {
  state_raw_.store(state_.get(), std::memory_order_release);
  if (options_.readahead_window > 0) {
    readahead_ =
        std::make_unique<Readahead>(&pool_, options_.readahead_workers);
  }
}

NokStore::ReadPin::ReadPin(const NokStore* store)
    : store_(store), next_(tl_pins) {
  // Adopt an enclosing pin's snapshot on this thread so nested pins can
  // never straddle a commit; otherwise latch the latest committed state.
  for (ReadPin* p = next_; p != nullptr; p = p->next_) {
    if (p->store_ == store) {
      state_ = p->state_;
      break;
    }
  }
  if (state_ == nullptr) {
    std::lock_guard<std::mutex> lock(store->state_mu_);
    state_ = store->state_;
  }
  tl_pins = this;
}

NokStore::ReadPin::ReadPin(const NokStore* store, const ReadPin& adopt)
    : store_(store), state_(adopt.state_), next_(tl_pins) {
  assert(adopt.store_ == store);
  tl_pins = this;
}

NokStore::ReadPin::~ReadPin() {
  assert(tl_pins == this);
  tl_pins = next_;
}

const NokStore::State& NokStore::read_state() const {
  // The writer thread sees its own staged state mid-transaction, so staged
  // mutations compose (e.g. the multi-page run rewrite of a range update).
  // Other threads never dereference work_: they fail the tid test first.
  if (writer_tid_.load(std::memory_order_relaxed) ==
          std::this_thread::get_id() &&
      work_ != nullptr) {
    return *work_;
  }
  for (ReadPin* p = tl_pins; p != nullptr; p = p->next_) {
    if (p->store_ == this) return *p->state_;
  }
  return *state_raw_.load(std::memory_order_acquire);
}

Status NokStore::BeginUpdate() {
  if (work_ != nullptr) {
    return Status::InvalidArgument("update transaction already open");
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    work_ = std::make_unique<State>(*state_);
  }
  fresh_pages_.clear();
  writer_tid_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  return Status::OK();
}

Status NokStore::CommitUpdate() {
  if (work_ == nullptr) {
    return Status::InvalidArgument("no open update transaction");
  }
  auto next = std::make_shared<const State>(std::move(*work_));
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    state_ = std::move(next);
    state_raw_.store(state_.get(), std::memory_order_release);
  }
  work_.reset();
  wtags_.reset();
  wvalues_.reset();
  wpostings_.reset();
  fresh_pages_.clear();
  writer_tid_.store(std::thread::id(), std::memory_order_relaxed);
  return Status::OK();
}

void NokStore::AbortUpdate() {
  work_.reset();
  wtags_.reset();
  wvalues_.reset();
  wpostings_.reset();
  fresh_pages_.clear();
  writer_tid_.store(std::thread::id(), std::memory_order_relaxed);
}

TagDictionary& NokStore::wip_tags() {
  if (wtags_ == nullptr) {
    wtags_ = std::make_shared<TagDictionary>(*work_->tags);
    work_->tags = wtags_;
  }
  return *wtags_;
}

std::vector<std::string>& NokStore::wip_values() {
  if (wvalues_ == nullptr) {
    wvalues_ = std::make_shared<std::vector<std::string>>(*work_->values);
    work_->values = wvalues_;
  }
  return *wvalues_;
}

std::vector<std::vector<NodeId>>& NokStore::wip_postings() {
  if (wpostings_ == nullptr) {
    wpostings_ =
        std::make_shared<std::vector<std::vector<NodeId>>>(*work_->postings);
    work_->postings = wpostings_;
  }
  return *wpostings_;
}

Result<PageHandle> NokStore::CowFetch(size_t ordinal) {
  PageInfo& info = wip().pages[ordinal];
  if (fresh_pages_.count(info.page_id) != 0) {
    // Already shadow-copied (or composed) by this transaction.
    return pool_.Fetch(info.page_id);
  }
  SECXML_ASSIGN_OR_RETURN(PageHandle old, pool_.Fetch(info.page_id));
  SECXML_ASSIGN_OR_RETURN(PageHandle fresh, pool_.Allocate());
  fresh.mutable_page()->data = old.page().data;
  fresh.MarkDirty();
  SECXML_RETURN_NOT_OK(CheckOnDiskHeader(
      fresh.page().ReadAt<NokPageHeader>(0), info.page_id));
  fresh_pages_.insert(fresh.page_id());
  info.page_id = fresh.page_id();
  return fresh;
}

Status NokStore::Build(const Document& doc, PagedFile* file,
                       const NokStoreOptions& options,
                       const std::function<uint32_t(NodeId)>& code_of,
                       std::unique_ptr<NokStore>* out) {
  if (doc.empty()) return Status::InvalidArgument("cannot build empty store");
  if (file->NumPages() != 0) {
    return Status::InvalidArgument("Build requires an empty paged file");
  }
  std::unique_ptr<NokStore> store(new NokStore(file, options));
  SECXML_RETURN_NOT_OK(store->BeginUpdate());
  store->wip().num_nodes = static_cast<NodeId>(doc.NumNodes());
  store->wip_tags() = doc.tags();
  std::vector<std::string>& values = store->wip_values();
  std::vector<std::vector<NodeId>>& postings = store->wip_postings();
  postings.resize(store->wip().tags->size());

  const uint32_t max_records =
      options.max_records_per_page == 0
          ? kMaxRecordsPerPage
          : std::min(options.max_records_per_page, kMaxRecordsPerPage);

  std::vector<NokRecord> records;
  std::vector<DolTransition> transitions;
  NodeId page_first_node = 0;
  uint32_t page_first_code = 0;
  uint32_t prev_code = 0;

  auto flush_page = [&]() -> Status {
    SECXML_ASSIGN_OR_RETURN(PageHandle handle, store->pool_.Allocate());
    NokPageHeader header;
    header.num_records = static_cast<uint16_t>(records.size());
    header.first_depth = records.empty() ? 0 : records[0].depth;
    header.num_transitions = static_cast<uint16_t>(transitions.size());
    header.first_code = page_first_code;
    header.set_change_bit(!transitions.empty());
    ComposePage(header, records.data(), transitions, handle.mutable_page());
    handle.MarkDirty();
    PageInfo info;
    info.page_id = handle.page_id();
    info.first_node = page_first_node;
    info.num_records = header.num_records;
    info.first_depth = header.first_depth;
    info.first_code = header.first_code;
    info.change_bit = header.change_bit();
    store->wip().pages.push_back(info);
    records.clear();
    transitions.clear();
    return Status::OK();
  };

  for (NodeId n = 0; n < doc.NumNodes(); ++n) {
    uint32_t code = code_of ? code_of(n) : 0;
    bool starts_page = records.empty();
    bool is_transition = !starts_page && code != prev_code;
    // Will this record (plus its transition entry, plus the reserved update
    // slack) still fit?
    uint32_t needed_transitions = static_cast<uint32_t>(transitions.size()) +
                                  (is_transition ? 1 : 0) +
                                  options.transition_slack;
    if (!starts_page &&
        (records.size() >= max_records ||
         !PageFits(static_cast<uint32_t>(records.size()) + 1,
                   needed_transitions))) {
      SECXML_RETURN_NOT_OK(flush_page());
      starts_page = true;
      is_transition = false;
    }
    if (starts_page) {
      page_first_node = n;
      page_first_code = code;
    }
    if (is_transition) {
      transitions.push_back(DolTransition{
          static_cast<uint16_t>(records.size()), 0, code});
    }
    NokRecord rec;
    rec.tag = doc.Tag(n);
    rec.subtree_size = doc.SubtreeSize(n);
    rec.depth = doc.Depth(n);
    if (doc.HasValue(n)) {
      rec.value_ref = static_cast<uint32_t>(values.size());
      values.emplace_back(doc.Value(n));
    }
    records.push_back(rec);
    postings[rec.tag].push_back(n);
    prev_code = code;
  }
  if (!records.empty()) {
    SECXML_RETURN_NOT_OK(flush_page());
  }
  SECXML_RETURN_NOT_OK(store->CommitUpdate());
  SECXML_RETURN_NOT_OK(store->pool_.FlushAll());
  *out = std::move(store);
  return Status::OK();
}

Status NokStore::Persist(const std::vector<uint8_t>& user_blob) {
  if (work_ != nullptr) {
    return Status::InvalidArgument("Persist inside an update transaction");
  }
  SECXML_RETURN_NOT_OK(pool_.FlushAll());
  const State& st = read_state();
  // Serialize the directory (ordered page ids) and the tag dictionary.
  std::vector<uint8_t> blob;
  for (const PageInfo& info : st.pages) AppendU32(&blob, info.page_id);
  AppendU32(&blob, static_cast<uint32_t>(st.tags->size()));
  for (TagId t = 0; t < st.tags->size(); ++t) {
    const std::string& name = st.tags->Name(t);
    AppendU32(&blob, static_cast<uint32_t>(name.size()));
    blob.insert(blob.end(), name.begin(), name.end());
  }
  AppendU32(&blob, static_cast<uint32_t>(st.values->size()));
  for (const std::string& v : *st.values) {
    AppendU32(&blob, static_cast<uint32_t>(v.size()));
    blob.insert(blob.end(), v.begin(), v.end());
  }
  AppendU32(&blob, static_cast<uint32_t>(user_blob.size()));
  blob.insert(blob.end(), user_blob.begin(), user_blob.end());

  Superblock super;
  super.num_nodes = st.num_nodes;
  super.dir_entries = static_cast<uint32_t>(st.pages.size());
  super.payload_bytes = blob.size();
  super.blob_pages =
      static_cast<uint32_t>((blob.size() + kPageSize - 1) / kPageSize);

  size_t written = 0;
  for (uint32_t i = 0; i < super.blob_pages; ++i) {
    SECXML_ASSIGN_OR_RETURN(PageHandle page, pool_.Allocate());
    if (i == 0) super.blob_start = page.page_id();
    size_t chunk = std::min(kPageSize, blob.size() - written);
    std::memcpy(page.mutable_page()->data.data(), blob.data() + written,
                chunk);
    written += chunk;
    page.MarkDirty();
  }
  SECXML_ASSIGN_OR_RETURN(PageHandle sb, pool_.Allocate());
  sb.mutable_page()->Zero();
  sb.mutable_page()->WriteAt(0, super);
  sb.MarkDirty();
  sb.Release();
  return pool_.FlushAll();
}

Status NokStore::Open(PagedFile* file, const NokStoreOptions& options,
                      std::unique_ptr<NokStore>* out,
                      std::vector<uint8_t>* user_blob) {
  if (user_blob != nullptr) user_blob->clear();
  if (file->NumPages() == 0) {
    return Status::InvalidArgument("cannot open an empty paged file");
  }
  std::unique_ptr<NokStore> store(new NokStore(file, options));

  ParsedSuper parsed;
  bool have_snapshot = false;
  if (options.recover_superblock) {
    // Crash recovery: updates after the last checkpoint appended pages past
    // its superblock, and a torn Persist may have left garbage at the end.
    // Shadow paging never overwrites a checkpoint's pages, so scanning
    // backward for the first fully parseable superblock always lands on the
    // latest durable checkpoint.
    for (PageId p = file->NumPages(); p-- > 0;) {
      Page raw;
      SECXML_RETURN_NOT_OK(file->ReadPage(p, &raw));
      Superblock super = raw.ReadAt<Superblock>(0);
      if (super.magic != kSuperMagic) continue;
      parsed = ParsedSuper();
      Status st = ParseSuperblock(&store->pool_, file, super, &parsed);
      if (st.ok()) {
        have_snapshot = true;
        break;
      }
      if (st.code() != StatusCode::kCorruption) return st;
    }
    if (!have_snapshot) {
      return Status::Corruption(
          "recovery found no valid superblock (no checkpoint on device)");
    }
  } else {
    // A Persist() snapshot? The last page carries the superblock.
    SECXML_ASSIGN_OR_RETURN(PageHandle last,
                            store->pool_.Fetch(file->NumPages() - 1));
    Superblock super = last.page().ReadAt<Superblock>(0);
    if (super.magic == kSuperMagic) {
      SECXML_RETURN_NOT_OK(
          ParseSuperblock(&store->pool_, file, super, &parsed));
      have_snapshot = true;
    }
  }
  if (!have_snapshot) {
    // Legacy layout: pages in physical order equal document order (true for
    // freshly built stores; splits and structural updates require Persist).
    parsed.directory.resize(file->NumPages());
    for (PageId id = 0; id < file->NumPages(); ++id) parsed.directory[id] = id;
  }
  if (user_blob != nullptr) *user_blob = std::move(parsed.user_blob);

  SECXML_RETURN_NOT_OK(store->BeginUpdate());
  store->wip_tags() = std::move(parsed.tags);
  store->wip_values() = std::move(parsed.values);
  std::vector<std::vector<NodeId>>& postings = store->wip_postings();

  NodeId next_node = 0;
  for (PageId id : parsed.directory) {
    SECXML_ASSIGN_OR_RETURN(PageHandle handle, store->pool_.Fetch(id));
    NokPageHeader header = handle.page().ReadAt<NokPageHeader>(0);
    if (header.num_records == 0 ||
        !PageFits(header.num_records, header.num_transitions)) {
      return Status::Corruption("invalid page header on page " +
                                std::to_string(id));
    }
    PageInfo info;
    info.page_id = id;
    info.first_node = next_node;
    info.num_records = header.num_records;
    info.first_depth = header.first_depth;
    info.first_code = header.first_code;
    info.change_bit = header.change_bit();
    store->wip().pages.push_back(info);

    // Rebuild the tag index while the page is resident.
    for (uint32_t slot = 0; slot < header.num_records; ++slot) {
      NokRecord rec = handle.page().ReadAt<NokRecord>(RecordOffset(slot));
      while (postings.size() <= rec.tag) {
        postings.emplace_back();
      }
      postings[rec.tag].push_back(next_node + slot);
    }
    next_node += header.num_records;
  }
  store->wip().num_nodes = next_node;
  SECXML_RETURN_NOT_OK(store->CommitUpdate());
  *out = std::move(store);
  return Status::OK();
}

void NokStore::SetReadahead(size_t window, size_t workers) {
  readahead_.reset();
  options_.readahead_window = window;
  options_.readahead_workers = workers;
  if (window > 0) {
    readahead_ = std::make_unique<Readahead>(&pool_, workers);
  }
}

namespace {

/// Validates that node `n` lies inside the page described by `info`; the
/// directory entry is trusted (in-memory, validated at open), the node id
/// is not — corrupt subtree_size fields can aim navigation anywhere.
Status CheckNodeInPage(const NokStore::PageInfo& info, NodeId n) {
  if (n < info.first_node || n - info.first_node >= info.num_records) {
    return Status::Corruption("node " + std::to_string(n) +
                              " lies outside page " +
                              std::to_string(info.page_id) +
                              " (corrupt node id or directory)");
  }
  return Status::OK();
}

}  // namespace

NodeId NokStore::num_nodes() const { return read_state().num_nodes; }

size_t NokStore::num_pages() const { return read_state().pages.size(); }

const std::vector<NokStore::PageInfo>& NokStore::page_infos() const {
  return read_state().pages;
}

const TagDictionary& NokStore::tags() const { return *read_state().tags; }

std::string_view NokStore::Value(const NokRecord& rec) const {
  return rec.value_ref == kNoValueRef
             ? std::string_view()
             : std::string_view((*read_state().values)[rec.value_ref]);
}

size_t NokStore::PageOrdinalOf(NodeId n) const {
  // Largest ordinal with first_node <= n. Total for any n (a corrupt or
  // out-of-range id maps to the last page and is rejected downstream by
  // CheckNodeInPage) so release builds never index out of bounds here.
  const std::vector<PageInfo>& pages = read_state().pages;
  if (pages.empty()) return 0;
  size_t lo = 0, hi = pages.size();
  while (hi - lo > 1) {
    size_t mid = (lo + hi) / 2;
    if (pages[mid].first_node <= n) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Result<NokRecord> NokStore::Record(NodeId n) {
  if (n >= read_state().num_nodes) {
    return Status::OutOfRange("node id " + std::to_string(n) +
                              " out of range");
  }
  return RecordInPage(PageOrdinalOf(n), n);
}

Result<NokRecord> NokStore::RecordInPage(size_t ordinal, NodeId n) {
  const std::vector<PageInfo>& pages = read_state().pages;
  if (ordinal >= pages.size()) {
    return Status::Corruption("page ordinal " + std::to_string(ordinal) +
                              " out of range");
  }
  const PageInfo& info = pages[ordinal];
  SECXML_RETURN_NOT_OK(CheckNodeInPage(info, n));
  SECXML_ASSIGN_OR_RETURN(PageHandle handle, pool_.Fetch(info.page_id));
  uint32_t slot = n - info.first_node;
  return handle.page().ReadAt<NokRecord>(RecordOffset(slot));
}

Status NokStore::RecordAndCode(NodeId n, NokRecord* record, uint32_t* code) {
  if (n >= read_state().num_nodes) {
    return Status::OutOfRange("node id " + std::to_string(n) +
                              " out of range");
  }
  return RecordAndCodeInPage(PageOrdinalOf(n), n, record, code);
}

Status NokStore::RecordAndCodeInPage(size_t ordinal, NodeId n,
                                     NokRecord* record, uint32_t* code) {
  const std::vector<PageInfo>& pages = read_state().pages;
  if (ordinal >= pages.size()) {
    return Status::Corruption("page ordinal " + std::to_string(ordinal) +
                              " out of range");
  }
  const PageInfo& info = pages[ordinal];
  SECXML_RETURN_NOT_OK(CheckNodeInPage(info, n));
  SECXML_ASSIGN_OR_RETURN(PageHandle handle, pool_.Fetch(info.page_id));
  uint32_t slot = n - info.first_node;
  *record = handle.page().ReadAt<NokRecord>(RecordOffset(slot));
  *code = info.first_code;
  if (info.change_bit && slot > 0) {
    NokPageHeader header = handle.page().ReadAt<NokPageHeader>(0);
    SECXML_RETURN_NOT_OK(CheckOnDiskHeader(header, info.page_id));
    for (uint32_t i = 0; i < header.num_transitions; ++i) {
      DolTransition t =
          handle.page().ReadAt<DolTransition>(TransitionOffset(i));
      if (t.slot > slot) break;
      *code = t.code;
    }
  }
  return Status::OK();
}

Result<uint32_t> NokStore::AccessCode(NodeId n) {
  const State& st = read_state();
  if (n >= st.num_nodes) {
    return Status::OutOfRange("node id " + std::to_string(n) +
                              " out of range");
  }
  size_t ordinal = PageOrdinalOf(n);
  const PageInfo& info = st.pages[ordinal];
  uint32_t slot = n - info.first_node;
  // Without the change bit, every node in the page shares the initial code;
  // this is the in-memory-header fast path of Section 3.3.
  if (!info.change_bit || slot == 0) return info.first_code;
  SECXML_ASSIGN_OR_RETURN(PageHandle handle, pool_.Fetch(info.page_id));
  NokPageHeader header = handle.page().ReadAt<NokPageHeader>(0);
  SECXML_RETURN_NOT_OK(CheckOnDiskHeader(header, info.page_id));
  uint32_t code = header.first_code;
  // Transitions are slot-ascending; take the last one at or before `slot`.
  for (uint32_t i = 0; i < header.num_transitions; ++i) {
    DolTransition t = handle.page().ReadAt<DolTransition>(TransitionOffset(i));
    if (t.slot > slot) break;
    code = t.code;
  }
  return code;
}

const std::vector<NodeId>& NokStore::Postings(TagId tag) const {
  const std::vector<std::vector<NodeId>>& postings = *read_state().postings;
  if (tag >= postings.size()) return empty_postings_;
  return postings[tag];
}

Result<NodeId> NokStore::FirstAtDepthInPage(size_t ordinal, uint16_t depth,
                                            NodeId from_node, NodeId limit) {
  const std::vector<PageInfo>& pages = read_state().pages;
  if (ordinal >= pages.size()) {
    return Status::OutOfRange("page ordinal out of range");
  }
  const PageInfo& info = pages[ordinal];
  SECXML_ASSIGN_OR_RETURN(PageHandle handle, pool_.Fetch(info.page_id));
  uint32_t first_slot =
      from_node > info.first_node ? from_node - info.first_node : 0;
  for (uint32_t slot = first_slot; slot < info.num_records; ++slot) {
    NodeId n = info.first_node + slot;
    if (n >= limit) break;
    NokRecord rec = handle.page().ReadAt<NokRecord>(RecordOffset(slot));
    if (rec.depth == depth) return n;
  }
  return kInvalidNode;
}

Result<std::vector<DolTransition>> NokStore::PageTransitions(size_t ordinal) {
  const std::vector<PageInfo>& pages = read_state().pages;
  if (ordinal >= pages.size()) {
    return Status::OutOfRange("page ordinal out of range");
  }
  SECXML_ASSIGN_OR_RETURN(PageHandle handle,
                          pool_.Fetch(pages[ordinal].page_id));
  NokPageHeader header = handle.page().ReadAt<NokPageHeader>(0);
  SECXML_RETURN_NOT_OK(CheckOnDiskHeader(header, pages[ordinal].page_id));
  std::vector<DolTransition> result;
  result.reserve(header.num_transitions);
  for (uint32_t i = 0; i < header.num_transitions; ++i) {
    result.push_back(handle.page().ReadAt<DolTransition>(TransitionOffset(i)));
  }
  return result;
}

Status NokStore::SetPageAcl(size_t ordinal, uint32_t first_code,
                            std::vector<DolTransition> transitions) {
  bool auto_txn = !InUpdate();
  if (auto_txn) SECXML_RETURN_NOT_OK(BeginUpdate());
  Status st = SetPageAclStaged(ordinal, first_code, std::move(transitions));
  if (!auto_txn) return st;
  if (!st.ok()) {
    AbortUpdate();
    return st;
  }
  return CommitUpdate();
}

Status NokStore::SetPageAclStaged(size_t ordinal, uint32_t first_code,
                                  std::vector<DolTransition> transitions) {
  if (ordinal >= wip().pages.size()) {
    return Status::OutOfRange("page ordinal out of range");
  }
  PageInfo& info = wip().pages[ordinal];
  for (size_t i = 0; i < transitions.size(); ++i) {
    if (transitions[i].slot == 0 || transitions[i].slot >= info.num_records ||
        (i > 0 && transitions[i].slot <= transitions[i - 1].slot)) {
      return Status::InvalidArgument("transition slots must be ascending in "
                                     "(0, num_records)");
    }
  }
  if (!PageFits(info.num_records,
                static_cast<uint32_t>(transitions.size()))) {
    return SplitAndSet(ordinal, first_code, transitions);
  }
  SECXML_ASSIGN_OR_RETURN(PageHandle handle, CowFetch(ordinal));
  NokPageHeader header = handle.page().ReadAt<NokPageHeader>(0);
  header.first_code = first_code;
  header.num_transitions = static_cast<uint16_t>(transitions.size());
  header.set_change_bit(!transitions.empty());
  handle.mutable_page()->WriteAt(0, header);
  for (uint32_t i = 0; i < transitions.size(); ++i) {
    handle.mutable_page()->WriteAt(TransitionOffset(i), transitions[i]);
  }
  handle.MarkDirty();
  // Re-read info: CowFetch may have repointed the entry's page_id.
  PageInfo& fresh_info = wip().pages[ordinal];
  fresh_info.first_code = first_code;
  fresh_info.change_bit = header.change_bit();
  fresh_pages_.insert(fresh_info.page_id);
  return Status::OK();
}

Status NokStore::SplitAndSet(size_t ordinal, uint32_t first_code,
                             const std::vector<DolTransition>& transitions) {
  if (wip().pages[ordinal].num_records < 2) {
    return Status::Corruption("cannot split a page with fewer than 2 records");
  }
  // Read all records of the overfull page (committed or staged image).
  std::vector<NokRecord> records(wip().pages[ordinal].num_records);
  {
    SECXML_ASSIGN_OR_RETURN(PageHandle handle,
                            pool_.Fetch(wip().pages[ordinal].page_id));
    for (uint32_t i = 0; i < records.size(); ++i) {
      records[i] = handle.page().ReadAt<NokRecord>(RecordOffset(i));
    }
  }
  uint32_t split = static_cast<uint32_t>(records.size()) / 2;

  // Partition the intended transitions; compute the code in effect at the
  // split point for the right page's header.
  std::vector<DolTransition> left_ts, right_ts;
  uint32_t right_first_code = first_code;
  for (const DolTransition& t : transitions) {
    if (t.slot < split) {
      left_ts.push_back(t);
      right_first_code = t.code;
    } else if (t.slot == split) {
      right_first_code = t.code;
    } else {
      right_ts.push_back(DolTransition{
          static_cast<uint16_t>(t.slot - split), 0, t.code});
    }
  }

  // Both halves are composed into fresh pages: the right one is new, and
  // the left one shadow-replaces the original so the committed image
  // survives for pinned readers and recovery.
  SECXML_ASSIGN_OR_RETURN(PageHandle right, pool_.Allocate());
  NokPageHeader right_header;
  right_header.num_records = static_cast<uint16_t>(records.size() - split);
  right_header.first_depth = records[split].depth;
  right_header.num_transitions = static_cast<uint16_t>(right_ts.size());
  right_header.first_code = right_first_code;
  right_header.set_change_bit(!right_ts.empty());
  ComposePage(right_header, records.data() + split, right_ts,
              right.mutable_page());
  right.MarkDirty();
  fresh_pages_.insert(right.page_id());

  {
    PageInfo& left_info = wip().pages[ordinal];
    PageHandle left;
    if (fresh_pages_.count(left_info.page_id) != 0) {
      SECXML_ASSIGN_OR_RETURN(left, pool_.Fetch(left_info.page_id));
    } else {
      SECXML_ASSIGN_OR_RETURN(left, pool_.Allocate());
      left_info.page_id = left.page_id();
    }
    NokPageHeader left_header;
    left_header.num_records = static_cast<uint16_t>(split);
    left_header.first_depth = records[0].depth;
    left_header.num_transitions = static_cast<uint16_t>(left_ts.size());
    left_header.first_code = first_code;
    left_header.set_change_bit(!left_ts.empty());
    ComposePage(left_header, records.data(), left_ts, left.mutable_page());
    left.MarkDirty();
    fresh_pages_.insert(left_info.page_id);
  }

  PageInfo& left_info = wip().pages[ordinal];
  PageInfo right_info;
  right_info.page_id = right.page_id();
  right_info.first_node = left_info.first_node + split;
  right_info.num_records = right_header.num_records;
  right_info.first_depth = right_header.first_depth;
  right_info.first_code = right_header.first_code;
  right_info.change_bit = right_header.change_bit();

  left_info.num_records = static_cast<uint16_t>(split);
  left_info.first_code = first_code;
  left_info.change_bit = !left_ts.empty();

  wip().pages.insert(wip().pages.begin() + static_cast<long>(ordinal) + 1,
                     right_info);
  return Status::OK();
}

Status NokStore::ReadPageContents(size_t ordinal,
                                  std::vector<NokRecord>* records,
                                  std::vector<uint32_t>* codes) {
  const std::vector<PageInfo>& pages = read_state().pages;
  if (ordinal >= pages.size()) {
    return Status::OutOfRange("page ordinal out of range");
  }
  const PageInfo& info = pages[ordinal];
  SECXML_ASSIGN_OR_RETURN(PageHandle handle, pool_.Fetch(info.page_id));
  NokPageHeader header = handle.page().ReadAt<NokPageHeader>(0);
  records->clear();
  codes->clear();
  uint32_t code = header.first_code;
  uint32_t next = 0;
  DolTransition trans{};
  if (next < header.num_transitions) {
    trans = handle.page().ReadAt<DolTransition>(TransitionOffset(next));
  }
  for (uint32_t slot = 0; slot < header.num_records; ++slot) {
    if (next < header.num_transitions && trans.slot == slot) {
      code = trans.code;
      ++next;
      if (next < header.num_transitions) {
        trans = handle.page().ReadAt<DolTransition>(TransitionOffset(next));
      }
    }
    records->push_back(handle.page().ReadAt<NokRecord>(RecordOffset(slot)));
    codes->push_back(code);
  }
  return Status::OK();
}

void NokStore::RebuildFirstNodes() {
  NodeId next = 0;
  for (PageInfo& info : wip().pages) {
    info.first_node = next;
    next += info.num_records;
  }
}

Status NokStore::ReplacePageRange(size_t begin_ord, size_t end_ord,
                                  const std::vector<NokRecord>& records,
                                  const std::vector<uint32_t>& codes) {
  assert(begin_ord <= end_ord && end_ord <= wip().pages.size());
  assert(records.size() == codes.size());
  const uint32_t max_records =
      options_.max_records_per_page == 0
          ? kMaxRecordsPerPage
          : std::min(options_.max_records_per_page, kMaxRecordsPerPage);

  // Pack records into fresh pages, greedily, honoring the update slack.
  std::vector<PageInfo> new_infos;
  size_t i = 0;
  while (i < records.size()) {
    uint32_t count = 1;
    uint32_t transitions = 0;
    while (i + count < records.size() && count < max_records) {
      uint32_t would_add = codes[i + count] != codes[i + count - 1] ? 1 : 0;
      if (!PageFits(count + 1,
                    transitions + would_add + options_.transition_slack)) {
        break;
      }
      transitions += would_add;
      ++count;
    }
    SECXML_ASSIGN_OR_RETURN(PageHandle handle, pool_.Allocate());
    NokPageHeader header;
    header.num_records = static_cast<uint16_t>(count);
    header.first_depth = records[i].depth;
    header.first_code = codes[i];
    std::vector<DolTransition> ts;
    for (uint32_t s = 1; s < count; ++s) {
      if (codes[i + s] != codes[i + s - 1]) {
        ts.push_back(DolTransition{static_cast<uint16_t>(s), 0, codes[i + s]});
      }
    }
    header.num_transitions = static_cast<uint16_t>(ts.size());
    header.set_change_bit(!ts.empty());
    ComposePage(header, records.data() + i, ts, handle.mutable_page());
    handle.MarkDirty();
    fresh_pages_.insert(handle.page_id());
    PageInfo info;
    info.page_id = handle.page_id();
    info.num_records = header.num_records;
    info.first_depth = header.first_depth;
    info.first_code = header.first_code;
    info.change_bit = header.change_bit();
    new_infos.push_back(info);
    i += count;
  }

  std::vector<PageInfo>& pages = wip().pages;
  pages.erase(pages.begin() + static_cast<long>(begin_ord),
              pages.begin() + static_cast<long>(end_ord));
  pages.insert(pages.begin() + static_cast<long>(begin_ord),
               new_infos.begin(), new_infos.end());
  RebuildFirstNodes();
  return Status::OK();
}

Status NokStore::Repack(size_t min_run_records, VacuumPlan* plan) {
  bool auto_txn = !InUpdate();
  if (auto_txn) SECXML_RETURN_NOT_OK(BeginUpdate());
  Status st = RepackStaged(min_run_records, plan);
  if (!auto_txn) return st;
  if (!st.ok()) {
    AbortUpdate();
    return st;
  }
  return CommitUpdate();
}

Status NokStore::RepackStaged(size_t min_run_records, VacuumPlan* plan_out) {
  // Gather the full record and code sequences in document order. Reads see
  // the staged state on the writer thread, so a vacuum composes with
  // earlier staged mutations of the same transaction.
  std::vector<NokRecord> records;
  std::vector<uint32_t> codes;
  std::vector<NokRecord> page_records;
  std::vector<uint32_t> page_codes;
  const size_t old_pages = wip().pages.size();
  for (size_t ordinal = 0; ordinal < old_pages; ++ordinal) {
    SECXML_RETURN_NOT_OK(ReadPageContents(ordinal, &page_records, &page_codes));
    records.insert(records.end(), page_records.begin(), page_records.end());
    codes.insert(codes.end(), page_codes.begin(), page_codes.end());
  }
  if (records.empty()) {
    if (plan_out != nullptr) *plan_out = VacuumPlan();
    return Status::OK();
  }

  PageGeometry geometry;
  geometry.page_bytes = kPageSize;
  geometry.header_bytes = sizeof(NokPageHeader);
  geometry.record_bytes = sizeof(NokRecord);
  geometry.transition_bytes = sizeof(DolTransition);
  VacuumPlanOptions popts;
  popts.max_records_per_page =
      options_.max_records_per_page == 0
          ? kMaxRecordsPerPage
          : std::min(options_.max_records_per_page, kMaxRecordsPerPage);
  popts.transition_slack = options_.transition_slack;
  popts.min_run_records = min_run_records;
  VacuumPlan plan = PlanVisibilityClusteredLayout(codes, geometry, popts);

  // Compose one fresh page per planned cut (shadow paging: old pages leak
  // in the file until CompactTo, like every page rewrite).
  std::vector<PageInfo> new_infos;
  new_infos.reserve(plan.page_starts.size());
  for (size_t p = 0; p < plan.page_starts.size(); ++p) {
    const size_t begin = plan.page_starts[p];
    const size_t end = p + 1 < plan.page_starts.size()
                           ? plan.page_starts[p + 1]
                           : records.size();
    const size_t count = end - begin;
    std::vector<DolTransition> ts;
    for (size_t s = begin + 1; s < end; ++s) {
      if (codes[s] != codes[s - 1]) {
        ts.push_back(
            DolTransition{static_cast<uint16_t>(s - begin), 0, codes[s]});
      }
    }
    // Fail closed on a malformed plan: committing an overfull page would
    // corrupt the store, so the hard fit is revalidated here.
    if (count == 0 || count > kMaxRecordsPerPage ||
        !PageFits(static_cast<uint32_t>(count),
                  static_cast<uint32_t>(ts.size()))) {
      return Status::Corruption("vacuum plan produced an unpackable page");
    }
    SECXML_ASSIGN_OR_RETURN(PageHandle handle, pool_.Allocate());
    NokPageHeader header;
    header.num_records = static_cast<uint16_t>(count);
    header.first_depth = records[begin].depth;
    header.first_code = codes[begin];
    header.num_transitions = static_cast<uint16_t>(ts.size());
    header.set_change_bit(!ts.empty());
    ComposePage(header, records.data() + begin, ts, handle.mutable_page());
    handle.MarkDirty();
    fresh_pages_.insert(handle.page_id());
    PageInfo info;
    info.page_id = handle.page_id();
    info.num_records = header.num_records;
    info.first_depth = header.first_depth;
    info.first_code = header.first_code;
    info.change_bit = header.change_bit();
    new_infos.push_back(info);
  }
  wip().pages = std::move(new_infos);
  RebuildFirstNodes();
  if (plan_out != nullptr) *plan_out = std::move(plan);
  return Status::OK();
}

Status NokStore::AncestorChain(NodeId target, std::vector<NodeId>* chain) {
  chain->clear();
  if (target >= read_state().num_nodes) {
    return Status::OutOfRange("node id out of range");
  }
  NodeId x = 0;
  while (x != target) {
    chain->push_back(x);
    NodeId c = x + 1;  // x has children because target lies inside it
    while (true) {
      SECXML_ASSIGN_OR_RETURN(NokRecord crec, Record(c));
      if (target < c + crec.subtree_size) break;
      c += crec.subtree_size;
    }
    x = c;
  }
  return Status::OK();
}

Status NokStore::AdjustSubtreeSizes(const std::vector<NodeId>& chain,
                                    int64_t delta) {
  for (NodeId n : chain) {
    size_t ordinal = PageOrdinalOf(n);
    SECXML_ASSIGN_OR_RETURN(PageHandle handle, CowFetch(ordinal));
    const PageInfo& info = wip().pages[ordinal];
    uint32_t slot = n - info.first_node;
    NokRecord rec = handle.page().ReadAt<NokRecord>(RecordOffset(slot));
    rec.subtree_size = static_cast<uint32_t>(
        static_cast<int64_t>(rec.subtree_size) + delta);
    handle.mutable_page()->WriteAt(RecordOffset(slot), rec);
    handle.MarkDirty();
  }
  return Status::OK();
}

void NokStore::SplicePostings(NodeId pos, NodeId removed, NodeId added) {
  for (std::vector<NodeId>& list : wip_postings()) {
    size_t out = 0;
    for (size_t i = 0; i < list.size(); ++i) {
      NodeId id = list[i];
      if (id < pos) {
        list[out++] = id;
      } else if (id >= pos + removed) {
        list[out++] = id - removed + added;
      }
      // ids inside [pos, pos + removed) are dropped.
    }
    list.resize(out);
  }
}

Status NokStore::DeleteSubtree(NodeId root) {
  bool auto_txn = !InUpdate();
  if (auto_txn) SECXML_RETURN_NOT_OK(BeginUpdate());
  Status st = DeleteSubtreeStaged(root);
  if (!auto_txn) return st;
  if (!st.ok()) {
    AbortUpdate();
    return st;
  }
  return CommitUpdate();
}

Status NokStore::DeleteSubtreeStaged(NodeId root) {
  if (root == 0) {
    return Status::InvalidArgument("cannot delete the document root");
  }
  SECXML_ASSIGN_OR_RETURN(NokRecord rec, Record(root));
  NodeId count = rec.subtree_size;
  NodeId end = root + count;

  std::vector<NodeId> chain;
  SECXML_RETURN_NOT_OK(AncestorChain(root, &chain));
  SECXML_RETURN_NOT_OK(AdjustSubtreeSizes(chain, -static_cast<int64_t>(count)));

  size_t first_ord = PageOrdinalOf(root);
  size_t last_ord = PageOrdinalOf(end - 1);
  std::vector<NokRecord> kept;
  std::vector<uint32_t> kept_codes;
  {
    std::vector<NokRecord> recs;
    std::vector<uint32_t> codes;
    SECXML_RETURN_NOT_OK(ReadPageContents(first_ord, &recs, &codes));
    uint32_t cut = root - wip().pages[first_ord].first_node;
    kept.assign(recs.begin(), recs.begin() + cut);
    kept_codes.assign(codes.begin(), codes.begin() + cut);
  }
  {
    std::vector<NokRecord> recs;
    std::vector<uint32_t> codes;
    SECXML_RETURN_NOT_OK(ReadPageContents(last_ord, &recs, &codes));
    uint32_t cut = end - wip().pages[last_ord].first_node;
    kept.insert(kept.end(), recs.begin() + cut, recs.end());
    kept_codes.insert(kept_codes.end(), codes.begin() + cut, codes.end());
  }
  SECXML_RETURN_NOT_OK(
      ReplacePageRange(first_ord, last_ord + 1, kept, kept_codes));
  wip().num_nodes -= count;
  SplicePostings(root, count, 0);
  return Status::OK();
}

Result<NodeId> NokStore::InsertSubtree(
    NodeId parent, NodeId after, const Document& fragment,
    const std::function<uint32_t(NodeId)>& code_of) {
  bool auto_txn = !InUpdate();
  if (auto_txn) {
    Status st = BeginUpdate();
    if (!st.ok()) return st;
  }
  Result<NodeId> r = InsertSubtreeStaged(parent, after, fragment, code_of);
  if (!auto_txn) return r;
  if (!r.ok()) {
    AbortUpdate();
    return r;
  }
  Status st = CommitUpdate();
  if (!st.ok()) return st;
  return r;
}

Result<NodeId> NokStore::InsertSubtreeStaged(
    NodeId parent, NodeId after, const Document& fragment,
    const std::function<uint32_t(NodeId)>& code_of) {
  if (fragment.empty()) {
    return Status::InvalidArgument("empty fragment");
  }
  SECXML_ASSIGN_OR_RETURN(NokRecord prec, Record(parent));
  NodeId parent_end = parent + prec.subtree_size;
  NodeId p;
  if (after == kInvalidNode) {
    p = parent + 1;
  } else {
    if (after <= parent || after >= parent_end) {
      return Status::InvalidArgument("'after' is not a child of 'parent'");
    }
    SECXML_ASSIGN_OR_RETURN(NokRecord arec, Record(after));
    if (arec.depth != prec.depth + 1) {
      return Status::InvalidArgument("'after' is not a child of 'parent'");
    }
    p = after + arec.subtree_size;
  }
  NodeId count = static_cast<NodeId>(fragment.NumNodes());

  std::vector<NodeId> chain;
  SECXML_RETURN_NOT_OK(AncestorChain(parent, &chain));
  chain.push_back(parent);
  SECXML_RETURN_NOT_OK(AdjustSubtreeSizes(chain, static_cast<int64_t>(count)));

  // Materialize the fragment's records in this store's tag/value spaces.
  std::vector<NokRecord> frag_recs(count);
  std::vector<uint32_t> frag_codes(count);
  uint16_t base_depth = static_cast<uint16_t>(prec.depth + 1);
  for (NodeId f = 0; f < count; ++f) {
    NokRecord r;
    r.tag = wip_tags().Intern(fragment.TagName(f));
    while (wip_postings().size() <= r.tag) wip_postings().emplace_back();
    r.subtree_size = fragment.SubtreeSize(f);
    r.depth = static_cast<uint16_t>(base_depth + fragment.Depth(f));
    if (fragment.HasValue(f)) {
      r.value_ref = static_cast<uint32_t>(wip_values().size());
      wip_values().emplace_back(fragment.Value(f));
    }
    frag_recs[f] = r;
    frag_codes[f] = code_of ? code_of(f) : 0;
  }

  if (p == wip().num_nodes) {
    SECXML_RETURN_NOT_OK(ReplacePageRange(wip().pages.size(),
                                          wip().pages.size(), frag_recs,
                                          frag_codes));
  } else {
    size_t ord = PageOrdinalOf(p);
    std::vector<NokRecord> recs;
    std::vector<uint32_t> codes;
    SECXML_RETURN_NOT_OK(ReadPageContents(ord, &recs, &codes));
    uint32_t cut = p - wip().pages[ord].first_node;
    std::vector<NokRecord> combined(recs.begin(), recs.begin() + cut);
    std::vector<uint32_t> combined_codes(codes.begin(), codes.begin() + cut);
    combined.insert(combined.end(), frag_recs.begin(), frag_recs.end());
    combined_codes.insert(combined_codes.end(), frag_codes.begin(),
                          frag_codes.end());
    combined.insert(combined.end(), recs.begin() + cut, recs.end());
    combined_codes.insert(combined_codes.end(), codes.begin() + cut,
                          codes.end());
    SECXML_RETURN_NOT_OK(
        ReplacePageRange(ord, ord + 1, combined, combined_codes));
  }
  wip().num_nodes += count;
  SplicePostings(p, 0, count);
  for (NodeId f = 0; f < count; ++f) {
    std::vector<NodeId>& list = wip_postings()[frag_recs[f].tag];
    NodeId id = p + f;
    list.insert(std::lower_bound(list.begin(), list.end(), id), id);
  }
  return p;
}

Status NokStore::CompactTo(PagedFile* dest, const NokStoreOptions& options,
                           std::unique_ptr<NokStore>* out) {
  if (dest->NumPages() != 0) {
    return Status::InvalidArgument("CompactTo requires an empty paged file");
  }
  const State& src = read_state();
  std::unique_ptr<NokStore> compacted(new NokStore(dest, options));
  SECXML_RETURN_NOT_OK(compacted->BeginUpdate());
  compacted->wip().num_nodes = src.num_nodes;
  compacted->wip().tags = src.tags;
  compacted->wip().values = src.values;
  compacted->wip().postings = src.postings;

  // Collect records and codes in document order (16 bytes per node), then
  // repack them densely.
  std::vector<NokRecord> records;
  std::vector<uint32_t> codes;
  records.reserve(src.num_nodes);
  codes.reserve(src.num_nodes);
  for (size_t ordinal = 0; ordinal < src.pages.size(); ++ordinal) {
    std::vector<NokRecord> page_records;
    std::vector<uint32_t> page_codes;
    SECXML_RETURN_NOT_OK(ReadPageContents(ordinal, &page_records, &page_codes));
    records.insert(records.end(), page_records.begin(), page_records.end());
    codes.insert(codes.end(), page_codes.begin(), page_codes.end());
  }
  SECXML_RETURN_NOT_OK(compacted->ReplacePageRange(0, 0, records, codes));
  SECXML_RETURN_NOT_OK(compacted->CommitUpdate());
  SECXML_RETURN_NOT_OK(compacted->Persist());
  *out = std::move(compacted);
  return Status::OK();
}

Result<uint64_t> NokStore::CountEmbeddedTransitions() {
  uint64_t total = 0;
  for (const PageInfo& info : read_state().pages) {
    if (!info.change_bit) continue;
    SECXML_ASSIGN_OR_RETURN(PageHandle handle, pool_.Fetch(info.page_id));
    total += handle.page().ReadAt<NokPageHeader>(0).num_transitions;
  }
  return total;
}

Status NokStore::CheckIntegrity() {
  const State& st = read_state();
  NodeId expected_first = 0;
  // Stack of subtree end positions; depth = stack size.
  std::vector<NodeId> ends;
  for (size_t ordinal = 0; ordinal < st.pages.size(); ++ordinal) {
    const PageInfo& info = st.pages[ordinal];
    if (info.first_node != expected_first) {
      return Status::Corruption("page first_node mismatch at ordinal " +
                                std::to_string(ordinal));
    }
    SECXML_ASSIGN_OR_RETURN(PageHandle handle, pool_.Fetch(info.page_id));
    NokPageHeader header = handle.page().ReadAt<NokPageHeader>(0);
    if (header.num_records != info.num_records ||
        header.first_depth != info.first_depth ||
        header.first_code != info.first_code ||
        header.change_bit() != info.change_bit) {
      return Status::Corruption("in-memory header out of sync at ordinal " +
                                std::to_string(ordinal));
    }
    for (uint32_t slot = 0; slot < header.num_records; ++slot) {
      NodeId n = info.first_node + slot;
      NokRecord rec = handle.page().ReadAt<NokRecord>(RecordOffset(slot));
      while (!ends.empty() && ends.back() <= n) ends.pop_back();
      if (rec.depth != ends.size()) {
        return Status::Corruption("depth mismatch at node " +
                                  std::to_string(n));
      }
      if (slot == 0 && rec.depth != header.first_depth) {
        return Status::Corruption("first_depth mismatch at ordinal " +
                                  std::to_string(ordinal));
      }
      if (rec.subtree_size == 0 ||
          n + rec.subtree_size > st.num_nodes ||
          (!ends.empty() && n + rec.subtree_size > ends.back())) {
        return Status::Corruption("subtree size out of bounds at node " +
                                  std::to_string(n));
      }
      ends.push_back(n + rec.subtree_size);
    }
    expected_first += header.num_records;
  }
  if (expected_first != st.num_nodes) {
    return Status::Corruption("node count mismatch");
  }
  return Status::OK();
}

}  // namespace secxml
