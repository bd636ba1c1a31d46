#ifndef SECXML_COMMON_BITVECTOR_H_
#define SECXML_COMMON_BITVECTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/dcheck.h"

namespace secxml {

/// Fixed-width dynamic bit vector used for per-subject access control lists.
/// One bit per access control subject; bit s set means subject s may access.
/// Supports equality and hashing so it can serve as a codebook dictionary key.
class BitVector {
 public:
  BitVector() = default;

  /// Creates a vector of `nbits` bits, all initialized to `value`.
  explicit BitVector(size_t nbits, bool value = false)
      : nbits_(nbits), words_((nbits + 63) / 64, value ? ~0ULL : 0ULL) {
    ClearPadding();
  }

  /// Builds a vector of `nbits` bits from ceil(nbits/64) words, bit i at
  /// bit (i % 64) of word i / 64 — the codebook's flat row layout.
  static BitVector FromWords(size_t nbits, const uint64_t* words) {
    BitVector bv;
    bv.nbits_ = nbits;
    bv.words_.assign(words, words + WordsFor(nbits));
    bv.ClearPadding();
    return bv;
  }

  /// Words needed for `nbits` bits.
  static size_t WordsFor(size_t nbits) { return (nbits + 63) / 64; }

  size_t size() const { return nbits_; }
  bool empty() const { return nbits_ == 0; }

  /// The backing words (WordsFor(size()) of them); padding bits are clear.
  const uint64_t* words() const { return words_.data(); }

  bool Get(size_t i) const {
    SECXML_DCHECK(i < nbits_);
    return GetUnchecked(i);
  }

  /// The word-indexed fast path of Get, without the bounds DCHECK: callers
  /// that have already validated `i` (the codebook's per-node accessibility
  /// probe) use this directly.
  bool GetUnchecked(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void Set(size_t i, bool value) {
    SECXML_DCHECK(i < nbits_);
    if (value) {
      words_[i >> 6] |= (1ULL << (i & 63));
    } else {
      words_[i >> 6] &= ~(1ULL << (i & 63));
    }
  }

  /// Appends one bit at the end (used when adding a new subject).
  void PushBack(bool value) {
    if ((nbits_ & 63) == 0) words_.push_back(0);
    ++nbits_;
    Set(nbits_ - 1, value);
  }

  /// Removes bit `i`, shifting all later bits down by one (subject deletion).
  void Erase(size_t i) {
    for (size_t j = i + 1; j < nbits_; ++j) Set(j - 1, Get(j));
    --nbits_;
    words_.resize((nbits_ + 63) / 64);
    ClearPadding();
  }

  /// Number of set bits.
  size_t Count() const {
    size_t c = 0;
    for (uint64_t w : words_) c += static_cast<size_t>(__builtin_popcountll(w));
    return c;
  }

  /// Storage consumed by the payload, in bytes (ceil(nbits/8)); used by the
  /// storage-cost benchmarks.
  size_t ByteSize() const { return (nbits_ + 7) / 8; }

  bool operator==(const BitVector& other) const {
    return nbits_ == other.nbits_ && words_ == other.words_;
  }
  bool operator!=(const BitVector& other) const { return !(*this == other); }

  /// 128-bit content fingerprint: two independently mixed streams over the
  /// words plus the bit length. Unlike Hash() this is meant for keys that
  /// outlive the vector (cross-request cache keys): at 128 bits a collision
  /// between two distinct ACL columns is negligible, so equal fingerprints
  /// can be treated as equal content without retaining the bits. The value
  /// is a pure function of the contents — stable across processes and runs.
  void Fingerprint128(uint64_t* hi, uint64_t* lo) const {
    uint64_t a = 0x9e3779b97f4a7c15ULL ^ (nbits_ * 0xff51afd7ed558ccdULL);
    uint64_t b = 0xc2b2ae3d27d4eb4fULL ^ nbits_;
    for (uint64_t w : words_) {
      a = (a ^ w) * 0x100000001b3ULL;
      a ^= a >> 31;
      b = (b + w) * 0x9e3779b97f4a7c15ULL;
      b ^= b >> 29;
    }
    *hi = a;
    *lo = b;
  }

  /// 64-bit hash of the contents (FNV-1a over words), for dictionary keys.
  size_t Hash() const { return HashWords(words_.data(), nbits_); }

  /// Hash() of the vector FromWords(nbits, words) would build, without
  /// building it.
  static size_t HashWords(const uint64_t* words, size_t nbits) {
    uint64_t h = 0xcbf29ce484222325ULL ^ nbits;
    for (size_t i = 0; i < WordsFor(nbits); ++i) {
      h ^= words[i];
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return static_cast<size_t>(h);
  }

  /// Renders as a string of '0'/'1', subject 0 first; for debugging and tests.
  std::string ToString() const {
    std::string s;
    s.reserve(nbits_);
    for (size_t i = 0; i < nbits_; ++i) s.push_back(Get(i) ? '1' : '0');
    return s;
  }

 private:
  void ClearPadding() {
    if (nbits_ & 63) {
      words_.back() &= (1ULL << (nbits_ & 63)) - 1;
    }
  }

  size_t nbits_ = 0;
  std::vector<uint64_t> words_;
};

struct BitVectorHash {
  size_t operator()(const BitVector& bv) const { return bv.Hash(); }
};

}  // namespace secxml

#endif  // SECXML_COMMON_BITVECTOR_H_
