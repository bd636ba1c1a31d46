#ifndef SECXML_CORE_CODEBOOK_H_
#define SECXML_CORE_CODEBOOK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "common/dcheck.h"
#include "common/result.h"
#include "common/status.h"
#include "core/access_types.h"

namespace secxml {

/// The DOL codebook (paper Section 2.1): a dictionary of the distinct access
/// control lists occurring in a secured tree. Each entry is a bit vector with
/// one bit per subject; transition nodes embedded in the document store only
/// a small integer code referencing an entry here. The codebook lives in
/// memory during query processing (Section 3.2).
///
/// 128-bit content fingerprint of one subject's codebook column
/// (BitVector::Fingerprint128 of Codebook::Column). Two subjects with equal
/// columns — the visibility equivalence the batch evaluator exploits — have
/// equal fingerprints, so the fingerprint is a compact, copyable stand-in
/// for "this visibility class" that callers can key caches on: it survives
/// CompactCodebook only when the column *content* survives (compaction
/// renumbers codes, changing every column, which is exactly when cached
/// per-class state must be dropped), and it is never an identity comparison
/// of column indices, which renumbering would silently break.
struct ColumnFingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  static ColumnFingerprint Of(const BitVector& column) {
    ColumnFingerprint fp;
    column.Fingerprint128(&fp.hi, &fp.lo);
    return fp;
  }

  bool operator==(const ColumnFingerprint& o) const {
    return hi == o.hi && lo == o.lo;
  }
  bool operator!=(const ColumnFingerprint& o) const { return !(*this == o); }
};

/// Codes are stable: once assigned, an entry's id never changes, because ids
/// are persisted inside document pages. Subject deletion therefore mutates
/// entries in place and may leave duplicate entries behind; per Section 3.4
/// such redundancy is tolerated and corrected lazily (CompactStats reports
/// the truly distinct count).
///
/// Storage is flat: entry e is row e of ceil(subjects/64) words in one
/// vector, and the Intern/Find dictionary is an open-addressing table of
/// codes over those rows. Copying a codebook — which every update does to
/// stage its working copy — is therefore two contiguous copies, not one
/// allocation per entry.
class Codebook {
 public:
  /// Creates a codebook for `num_subjects` subjects (may be 0 and grown via
  /// AddSubject).
  explicit Codebook(size_t num_subjects = 0)
      : num_subjects_(num_subjects),
        row_words_(BitVector::WordsFor(num_subjects)) {}

  Codebook(const Codebook&) = default;
  Codebook& operator=(const Codebook&) = default;
  /// A moved-from codebook is empty, like a moved-from vector.
  Codebook(Codebook&& other) noexcept { *this = std::move(other); }
  Codebook& operator=(Codebook&& other) noexcept;

  size_t num_subjects() const { return num_subjects_; }
  /// Number of entries, including any duplicates left by subject removal.
  size_t size() const { return num_entries_; }

  /// Returns the code for `acl`, adding an entry if it is new. `acl` must
  /// have exactly num_subjects() bits. Among duplicate entries (left by
  /// subject removal) the lowest code wins.
  AccessCodeId Intern(const BitVector& acl);

  /// Looks up `acl` without interning; kInvalidAccessCode if absent (or
  /// of the wrong width). Same first-occurrence rule as Intern.
  AccessCodeId Find(const BitVector& acl) const;

  /// A copy of the ACL behind `code`; the all-denied ACL for an
  /// out-of-range code, the same fail-closed rule as Accessible.
  BitVector Entry(AccessCodeId code) const;

  /// True if the ACL behind `code` grants access to `subject`. This is the
  /// per-node check on the secure query hot path; it is a pure read, so any
  /// number of query threads may call it (and Entry/Find/num_subjects)
  /// concurrently as long as no thread mutates the codebook (Intern,
  /// Add/RemoveSubject) at the same time.
  ///
  /// Fails closed: an out-of-range code (corrupt page bytes, stale caller
  /// state) or subject denies access instead of reading out of bounds —
  /// this check runs against values decoded straight from disk pages, so
  /// it must stay total in release builds.
  bool Accessible(AccessCodeId code, SubjectId subject) const {
    if (code >= num_entries_ || subject >= num_subjects_) return false;
    return (Row(code)[subject >> 6] >> (subject & 63)) & 1ULL;
  }

  /// Appends a new subject column to every entry, initialized to
  /// `default_access`, and returns the new subject's id. Per Section 3.4
  /// this is a codebook-only operation: no embedded transition changes.
  SubjectId AddSubject(bool default_access);

  /// Appends a new subject whose rights are copied from `like`; also
  /// codebook-only. Fails with InvalidArgument if `like` is not an existing
  /// subject — subject ids arrive from administrative callers outside the
  /// store, so this path must reject bad ids instead of asserting.
  Result<SubjectId> AddSubjectLike(SubjectId like);

  /// Removes a subject column from every entry. Entries that become
  /// identical are left in place (ids must stay stable); the dictionary
  /// index re-points to the first of each duplicate family.
  Status RemoveSubject(SubjectId subject);

  /// One subject's codebook column: bit e of the result is this subject's
  /// accessibility under entry e, i.e. Accessible(e, subject) for every
  /// code. Two subjects with equal columns are indistinguishable to every
  /// secure-evaluation path (per-node checks, page verdicts, and hidden
  /// intervals all reduce to column bits), which is what the multi-subject
  /// batch evaluator's equivalence classes rely on.
  ///
  /// Fails closed like Accessible: an out-of-range subject yields the
  /// all-denied column rather than reading out of bounds.
  BitVector Column(SubjectId subject) const;

  /// Content fingerprint of Column(subject) — see ColumnFingerprint above.
  /// Same fail-closed rule as Column: an out-of-range subject fingerprints
  /// as the all-denied column.
  ColumnFingerprint ColumnFingerprintOf(SubjectId subject) const;

  /// Number of distinct entries (collapsing duplicates left by removal).
  size_t CountDistinct() const { return distinct_; }

  /// Produces a deduplicated copy of this codebook plus the code remapping
  /// (old id -> new id) needed to rewrite embedded references. This is the
  /// "lazy correction" of Section 3.4: subject removal leaves duplicate
  /// entries in place (ids are persisted in pages), and a maintenance pass
  /// applies the mapping to the pages and swaps in the compact codebook —
  /// see SecureStore::CompactCodebook().
  Codebook Compacted(std::vector<AccessCodeId>* mapping) const;

  /// Total bytes of ACL payload across entries: size() * ceil(subjects/8).
  /// This is the codebook storage figure used in Section 5.1.1.
  size_t ByteSize() const {
    return num_entries_ * ((num_subjects_ + 7) / 8);
  }

  /// Exact serialization: entries in id order (duplicates included), so
  /// every persisted code stays valid after a round trip.
  std::vector<uint8_t> Serialize() const;

  /// Inverse of Serialize(). Rejects a header whose entry count the blob
  /// cannot hold before allocating anything.
  static Result<Codebook> Deserialize(const std::vector<uint8_t>& data);

 private:
  const uint64_t* Row(size_t code) const {
    return rows_.data() + code * row_words_;
  }
  uint64_t* MutableRow(size_t code) { return rows_.data() + code * row_words_; }

  /// The index slot holding the first code whose row equals `row`, or the
  /// empty slot where such a code belongs. Requires a non-empty index.
  size_t Probe(const uint64_t* row) const;
  /// Intern over a row of row_words_ words that does not alias rows_.
  AccessCodeId InternRow(const uint64_t* row);
  /// Changes the subject count, re-laying rows out when the row width in
  /// words changes (bits beyond the new count must already be clear).
  void Resize(size_t num_subjects);
  /// Re-indexes every row in code order, so the first of each duplicate
  /// family wins; sized for about `expected_distinct` distinct rows.
  void RebuildIndex(size_t expected_distinct);

  size_t num_subjects_ = 0;
  size_t row_words_ = 0;  ///< BitVector::WordsFor(num_subjects_)
  size_t num_entries_ = 0;
  /// Entry e's ACL: words [e * row_words_, (e + 1) * row_words_), subject s
  /// at bit s % 64 of word s / 64, padding bits clear (so equal ACLs have
  /// equal rows).
  std::vector<uint64_t> rows_;
  /// Open-addressing hash set of codes (linear probing, kInvalidAccessCode
  /// = empty slot) holding the first code of each distinct row. Power-of-
  /// two size, at most half full.
  std::vector<uint32_t> index_;
  size_t distinct_ = 0;  ///< codes in index_
};

/// One visibility equivalence class of a subject batch: subjects whose
/// codebook columns are bit-identical. Every secure evaluation answers
/// byte-identically for all members, so a batch evaluator computes each
/// class once and fans the result out (members keep the caller's order;
/// members.front() is the class representative).
struct SubjectClass {
  std::vector<SubjectId> members;
  /// Content fingerprint of the class's shared column, for keying
  /// cross-request caches on the class rather than any member id.
  ColumnFingerprint fingerprint;
  SubjectId representative() const { return members.front(); }
};

/// Partitions `subjects` into visibility equivalence classes by comparing
/// their codebook columns (hash + exact compare, no false merges).
/// Duplicate subject ids land in the same class. Classes appear in order of
/// first occurrence, so the partition is deterministic.
std::vector<SubjectClass> GroupSubjectsByColumn(
    const Codebook& codebook, const std::vector<SubjectId>& subjects);

}  // namespace secxml

#endif  // SECXML_CORE_CODEBOOK_H_
