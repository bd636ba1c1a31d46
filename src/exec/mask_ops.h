#ifndef SECXML_EXEC_MASK_OPS_H_
#define SECXML_EXEC_MASK_OPS_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace secxml {

/// One bit per visibility equivalence class of a subject batch. Two words
/// hold every batch the workloads send in one structural scan (the widest
/// is 76 classes); wider batches chunk. A single subject is a one-class
/// batch. All mask arithmetic in the engine goes through this type — the
/// layering lint forbids raw uint64_t mask math outside this header.
inline constexpr size_t kMaxBatchClasses = 128;
inline constexpr size_t kClassMaskWords = kMaxBatchClasses / 64;

/// Fixed two-word mask. Every operation is an inline loop over the two
/// words, which the compiler unrolls; there is no bulk-kernel layer.
///
/// Deliberately trivially copyable and standard-layout (bindings embed
/// masks), with natural 8-byte alignment, so embedding a mask in a struct
/// costs no padding.
class WideClassMask {
 public:
  constexpr WideClassMask() = default;

  /// Mask with only class bit `k` set (k < kMaxBatchClasses).
  static constexpr WideClassMask Bit(size_t k) {
    WideClassMask m;
    m.w_[k / 64] = 1ULL << (k % 64);
    return m;
  }

  /// Mask with class bits [0, n) set — the batch-wide "full" mask for a
  /// batch of n classes.
  static constexpr WideClassMask FirstN(size_t n) {
    WideClassMask m;
    for (size_t i = 0; i < kClassMaskWords; ++i) {
      if (n >= (i + 1) * 64) {
        m.w_[i] = ~0ULL;
      } else if (n > i * 64) {
        m.w_[i] = (1ULL << (n - i * 64)) - 1;
      }
    }
    return m;
  }

  constexpr bool Test(size_t k) const {
    return ((w_[k / 64] >> (k % 64)) & 1) != 0;
  }
  constexpr void Set(size_t k) { w_[k / 64] |= 1ULL << (k % 64); }
  constexpr void Reset(size_t k) { w_[k / 64] &= ~(1ULL << (k % 64)); }

  constexpr bool any() const {
    uint64_t acc = 0;
    for (size_t i = 0; i < kClassMaskWords; ++i) acc |= w_[i];
    return acc != 0;
  }
  constexpr bool none() const { return !any(); }

  constexpr size_t count() const {
    size_t c = 0;
    for (size_t i = 0; i < kClassMaskWords; ++i) c += std::popcount(w_[i]);
    return c;
  }

  constexpr WideClassMask& operator&=(const WideClassMask& o) {
    for (size_t i = 0; i < kClassMaskWords; ++i) w_[i] &= o.w_[i];
    return *this;
  }
  constexpr WideClassMask& operator|=(const WideClassMask& o) {
    for (size_t i = 0; i < kClassMaskWords; ++i) w_[i] |= o.w_[i];
    return *this;
  }
  friend constexpr WideClassMask operator&(WideClassMask a,
                                           const WideClassMask& b) {
    a &= b;
    return a;
  }
  friend constexpr WideClassMask operator|(WideClassMask a,
                                           const WideClassMask& b) {
    a |= b;
    return a;
  }

  /// this & ~o — the fail-closed complement restricted to this mask, so
  /// callers never form an unrestricted ~mask over the whole mask width.
  constexpr WideClassMask AndNot(const WideClassMask& o) const {
    WideClassMask r;
    for (size_t i = 0; i < kClassMaskWords; ++i) r.w_[i] = w_[i] & ~o.w_[i];
    return r;
  }

  /// True when every bit of `sub` is set here: (sub & ~this) == 0. The
  /// page-skip test "dead covers live" is one call.
  constexpr bool Covers(const WideClassMask& sub) const {
    uint64_t stray = 0;
    for (size_t i = 0; i < kClassMaskWords; ++i) stray |= sub.w_[i] & ~w_[i];
    return stray == 0;
  }

  constexpr bool Intersects(const WideClassMask& o) const {
    uint64_t acc = 0;
    for (size_t i = 0; i < kClassMaskWords; ++i) acc |= w_[i] & o.w_[i];
    return acc != 0;
  }

  friend constexpr bool operator==(const WideClassMask&,
                                   const WideClassMask&) = default;

  /// Lowest set class bit, or kMaxBatchClasses when empty.
  constexpr size_t FirstSetBit() const {
    for (size_t i = 0; i < kClassMaskWords; ++i) {
      if (w_[i] != 0) return i * 64 + std::countr_zero(w_[i]);
    }
    return kMaxBatchClasses;
  }

  /// Calls f(k) for every set class bit, ascending.
  template <typename F>
  void ForEachSetBit(F&& f) const {
    for (size_t i = 0; i < kClassMaskWords; ++i) {
      uint64_t w = w_[i];
      while (w != 0) {
        f(i * 64 + static_cast<size_t>(std::countr_zero(w)));
        w &= w - 1;
      }
    }
  }

 private:
  uint64_t w_[kClassMaskWords] = {};
};

using ClassMask = WideClassMask;

/// Provenance shim for the benchmark's output line, which records the mask
/// instruction set: the mask algebra above is plain inline code, so the
/// name is always "scalar".
enum class MaskIsa { kScalar };
constexpr MaskIsa ActiveMaskIsa() { return MaskIsa::kScalar; }
constexpr const char* MaskIsaName(MaskIsa) { return "scalar"; }

}  // namespace secxml

#endif  // SECXML_EXEC_MASK_OPS_H_
