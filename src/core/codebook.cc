#include "core/codebook.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_map>

namespace secxml {

namespace {

constexpr uint32_t kCodebookMagic = 0x53434442u;  // "SCDB"

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->insert(out->end(), reinterpret_cast<const uint8_t*>(&v),
              reinterpret_cast<const uint8_t*>(&v) + sizeof(v));
}

bool TakeU32(const std::vector<uint8_t>& in, size_t* pos, uint32_t* v) {
  if (*pos + sizeof(*v) > in.size()) return false;
  std::memcpy(v, in.data() + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}

/// Multiplier spreading a row hash over the index (Fibonacci hashing:
/// the slot is the top log2(size) bits of the product).
constexpr uint64_t kSlotMultiplier = 0x9e3779b97f4a7c15ULL;
constexpr uint32_t kEmptySlot = kInvalidAccessCode;
constexpr size_t kMinIndexSlots = 16;

}  // namespace

Codebook& Codebook::operator=(Codebook&& other) noexcept {
  num_subjects_ = other.num_subjects_;
  row_words_ = other.row_words_;
  num_entries_ = std::exchange(other.num_entries_, 0);
  rows_ = std::move(other.rows_);
  index_ = std::move(other.index_);
  distinct_ = std::exchange(other.distinct_, 0);
  other.rows_.clear();
  other.index_.clear();
  return *this;
}

std::vector<uint8_t> Codebook::Serialize() const {
  std::vector<uint8_t> out;
  PutU32(&out, kCodebookMagic);
  PutU32(&out, static_cast<uint32_t>(num_subjects_));
  PutU32(&out, static_cast<uint32_t>(num_entries_));
  const size_t entry_bytes = (num_subjects_ + 7) / 8;
  out.reserve(out.size() + num_entries_ * entry_bytes);
  for (size_t e = 0; e < num_entries_; ++e) {
    const uint64_t* row = Row(e);
    // Byte b holds subjects 8b..8b+7, least significant bit first; the
    // padding bits of the last byte are clear in the row already.
    for (size_t b = 0; b < entry_bytes; ++b) {
      out.push_back(static_cast<uint8_t>(row[b / 8] >> (8 * (b % 8))));
    }
  }
  return out;
}

Result<Codebook> Codebook::Deserialize(const std::vector<uint8_t>& data) {
  size_t pos = 0;
  uint32_t magic, num_subjects, num_entries;
  if (!TakeU32(data, &pos, &magic) || magic != kCodebookMagic) {
    return Status::Corruption("not a serialized codebook");
  }
  if (!TakeU32(data, &pos, &num_subjects) ||
      !TakeU32(data, &pos, &num_entries)) {
    return Status::Corruption("truncated codebook header");
  }
  const size_t entry_bytes = (num_subjects + 7) / 8;
  // Check the count against the bytes actually present before allocating:
  // a corrupt header must not size a multi-gigabyte row vector.
  if (entry_bytes != 0 && num_entries > (data.size() - pos) / entry_bytes) {
    return Status::Corruption("truncated codebook entry");
  }
  Codebook cb(num_subjects);
  cb.num_entries_ = num_entries;
  cb.rows_.assign(static_cast<size_t>(num_entries) * cb.row_words_, 0);
  const uint64_t last_word_mask =
      num_subjects % 64 == 0 ? ~0ULL : (1ULL << (num_subjects % 64)) - 1;
  for (size_t e = 0; e < num_entries; ++e) {
    uint64_t* row = cb.MutableRow(e);
    for (size_t b = 0; b < entry_bytes; ++b) {
      row[b / 8] |= static_cast<uint64_t>(data[pos + b]) << (8 * (b % 8));
    }
    // Bits past the last subject are not part of the ACL.
    if (cb.row_words_ != 0) row[cb.row_words_ - 1] &= last_word_mask;
    pos += entry_bytes;  // ids preserved verbatim
  }
  // With no subjects every row is the empty ACL: one distinct entry.
  cb.RebuildIndex(cb.row_words_ == 0 ? 1 : num_entries);
  return cb;
}

size_t Codebook::Probe(const uint64_t* row) const {
  const size_t mask = index_.size() - 1;
  const unsigned log2_slots = __builtin_ctzll(index_.size());
  size_t slot = static_cast<size_t>(
      (BitVector::HashWords(row, num_subjects_) * kSlotMultiplier) >>
      (64 - log2_slots));
  for (;; slot = (slot + 1) & mask) {
    const uint32_t code = index_[slot];
    if (code == kEmptySlot ||
        std::equal(row, row + row_words_, Row(code))) {
      return slot;
    }
  }
}

AccessCodeId Codebook::InternRow(const uint64_t* row) {
  // Grow first, so the slot Probe returns stays valid for the insert.
  if (2 * (distinct_ + 1) > index_.size()) RebuildIndex(distinct_ + 1);
  const size_t slot = Probe(row);
  if (index_[slot] != kEmptySlot) return index_[slot];
  const AccessCodeId code = static_cast<AccessCodeId>(num_entries_);
  rows_.insert(rows_.end(), row, row + row_words_);
  ++num_entries_;
  index_[slot] = code;
  ++distinct_;
  return code;
}

AccessCodeId Codebook::Intern(const BitVector& acl) {
  assert(acl.size() == num_subjects_);
  return InternRow(acl.words());
}

AccessCodeId Codebook::Find(const BitVector& acl) const {
  if (acl.size() != num_subjects_ || index_.empty()) {
    return kInvalidAccessCode;
  }
  return index_[Probe(acl.words())];
}

BitVector Codebook::Entry(AccessCodeId code) const {
  if (code >= num_entries_) return BitVector(num_subjects_);
  return BitVector::FromWords(num_subjects_, Row(code));
}

void Codebook::Resize(size_t num_subjects) {
  const size_t words = BitVector::WordsFor(num_subjects);
  if (words != row_words_) {
    std::vector<uint64_t> rows(num_entries_ * words, 0);
    const size_t keep = std::min(words, row_words_);
    for (size_t e = 0; e < num_entries_; ++e) {
      std::copy_n(Row(e), keep, rows.data() + e * words);
    }
    rows_ = std::move(rows);
    row_words_ = words;
  }
  num_subjects_ = num_subjects;
}

SubjectId Codebook::AddSubject(bool default_access) {
  const SubjectId id = static_cast<SubjectId>(num_subjects_);
  Resize(num_subjects_ + 1);
  if (default_access) {
    for (size_t e = 0; e < num_entries_; ++e) {
      MutableRow(e)[id >> 6] |= 1ULL << (id & 63);
    }
  }
  RebuildIndex(distinct_);
  return id;
}

Result<SubjectId> Codebook::AddSubjectLike(SubjectId like) {
  if (like >= num_subjects_) {
    return Status::InvalidArgument("no such subject to copy rights from");
  }
  const SubjectId id = static_cast<SubjectId>(num_subjects_);
  Resize(num_subjects_ + 1);
  for (size_t e = 0; e < num_entries_; ++e) {
    uint64_t* row = MutableRow(e);
    const uint64_t bit = (row[like >> 6] >> (like & 63)) & 1ULL;
    row[id >> 6] |= bit << (id & 63);
  }
  RebuildIndex(distinct_);
  return id;
}

Status Codebook::RemoveSubject(SubjectId subject) {
  if (subject >= num_subjects_) {
    return Status::InvalidArgument("no such subject");
  }
  // Shift every later subject's bit down by one, word by word: the low
  // bits of the subject's word stay, the rest move down, and each later
  // word hands its bit 0 to the top of the word before it.
  const size_t w = subject >> 6;
  const uint64_t low = (1ULL << (subject & 63)) - 1;
  for (size_t e = 0; e < num_entries_; ++e) {
    uint64_t* row = MutableRow(e);
    row[w] = (row[w] & low) | ((row[w] >> 1) & ~low);
    for (size_t k = w + 1; k < row_words_; ++k) {
      row[k - 1] |= row[k] << 63;
      row[k] >>= 1;
    }
  }
  Resize(num_subjects_ - 1);
  RebuildIndex(distinct_);
  return Status::OK();
}

BitVector Codebook::Column(SubjectId subject) const {
  BitVector column(num_entries_);
  if (subject >= num_subjects_) return column;  // fail closed: all denied
  const size_t word = subject >> 6;
  const unsigned bit = subject & 63;
  for (size_t e = 0; e < num_entries_; ++e) {
    if ((rows_[e * row_words_ + word] >> bit) & 1ULL) column.Set(e, true);
  }
  return column;
}

ColumnFingerprint Codebook::ColumnFingerprintOf(SubjectId subject) const {
  return ColumnFingerprint::Of(Column(subject));
}

std::vector<SubjectClass> GroupSubjectsByColumn(
    const Codebook& codebook, const std::vector<SubjectId>& subjects) {
  std::vector<SubjectClass> classes;
  std::unordered_map<BitVector, size_t, BitVectorHash> by_column;
  for (SubjectId s : subjects) {
    BitVector column = codebook.Column(s);
    ColumnFingerprint fp = ColumnFingerprint::Of(column);
    auto [it, inserted] = by_column.emplace(std::move(column), classes.size());
    if (inserted) {
      classes.emplace_back();
      classes.back().fingerprint = fp;
    }
    classes[it->second].members.push_back(s);
  }
  return classes;
}

Codebook Codebook::Compacted(std::vector<AccessCodeId>* mapping) const {
  Codebook out(num_subjects_);
  mapping->resize(num_entries_);
  for (size_t e = 0; e < num_entries_; ++e) {
    (*mapping)[e] = out.InternRow(Row(e));
  }
  return out;
}

void Codebook::RebuildIndex(size_t expected_distinct) {
  size_t slots = kMinIndexSlots;
  while (slots < 2 * expected_distinct) slots <<= 1;
  for (;;) {
    index_.assign(slots, kEmptySlot);
    distinct_ = 0;
    // Code order: the first of each duplicate family takes the slot, so
    // lookups are deterministic; later duplicates keep their (now never
    // interned) ids, which stay valid for codes already embedded in pages.
    size_t code = 0;
    for (; code < num_entries_ && 2 * distinct_ < slots; ++code) {
      const size_t slot = Probe(Row(code));
      if (index_[slot] == kEmptySlot) {
        index_[slot] = static_cast<uint32_t>(code);
        ++distinct_;
      }
    }
    if (code == num_entries_ && 2 * distinct_ <= slots) return;
    slots <<= 1;  // more distinct rows than expected: start over, larger
  }
}

}  // namespace secxml
