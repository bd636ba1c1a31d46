// WideClassMask semantics against a naive bit-set reference, across both
// words of the mask, and the provenance shim's name.

#include "exec/mask_ops.h"

#include <gtest/gtest.h>

#include <bitset>
#include <vector>

#include "common/rng.h"

namespace secxml {
namespace {

using Ref = std::bitset<kMaxBatchClasses>;

WideClassMask RandomMask(Rng* rng, double density = 0.5) {
  WideClassMask m;
  for (size_t k = 0; k < kMaxBatchClasses; ++k) {
    if (rng->Bernoulli(density)) m.Set(k);
  }
  return m;
}

Ref ToRef(const WideClassMask& m) {
  Ref r;
  for (size_t k = 0; k < kMaxBatchClasses; ++k) r[k] = m.Test(k);
  return r;
}

TEST(WideClassMaskTest, BitAndFirstN) {
  for (size_t k : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65},
                   size_t{100}, size_t{127}}) {
    WideClassMask m = WideClassMask::Bit(k);
    EXPECT_EQ(m.count(), 1u);
    EXPECT_TRUE(m.Test(k));
    EXPECT_EQ(m.FirstSetBit(), k);
  }
  for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65},
                   size_t{100}, size_t{127}, size_t{128}}) {
    WideClassMask m = WideClassMask::FirstN(n);
    EXPECT_EQ(m.count(), n) << n;
    for (size_t k = 0; k < kMaxBatchClasses; ++k) {
      EXPECT_EQ(m.Test(k), k < n) << "n=" << n << " k=" << k;
    }
  }
}

TEST(WideClassMaskTest, SetResetAnyNoneCount) {
  WideClassMask m;
  EXPECT_TRUE(m.none());
  EXPECT_FALSE(m.any());
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(m.FirstSetBit(), kMaxBatchClasses);
  m.Set(30);
  m.Set(120);
  EXPECT_TRUE(m.any());
  EXPECT_EQ(m.count(), 2u);
  EXPECT_EQ(m.FirstSetBit(), 30u);
  m.Reset(30);
  EXPECT_EQ(m.count(), 1u);
  EXPECT_EQ(m.FirstSetBit(), 120u);
  m.Reset(120);
  EXPECT_TRUE(m.none());
}

TEST(WideClassMaskTest, OperatorsMatchBitsetReference) {
  Rng rng(20260808);
  for (int iter = 0; iter < 200; ++iter) {
    WideClassMask a = RandomMask(&rng), b = RandomMask(&rng, 0.3);
    Ref ra = ToRef(a), rb = ToRef(b);

    EXPECT_EQ(ToRef(a & b), ra & rb);
    EXPECT_EQ(ToRef(a | b), ra | rb);
    EXPECT_EQ(ToRef(a.AndNot(b)), ra & ~rb);
    EXPECT_EQ(a.count(), ra.count());
    EXPECT_EQ(a.Intersects(b), (ra & rb).any());
    EXPECT_EQ(a.Covers(b), (rb & ~ra).none());
    EXPECT_EQ(a == b, ra == rb);

    WideClassMask c = a;
    c &= b;
    EXPECT_EQ(ToRef(c), ra & rb);
    c = a;
    c |= b;
    EXPECT_EQ(ToRef(c), ra | rb);
  }
}

TEST(WideClassMaskTest, CoversIsReflexiveAndFailClosed) {
  Rng rng(99);
  for (int iter = 0; iter < 50; ++iter) {
    WideClassMask a = RandomMask(&rng);
    EXPECT_TRUE(a.Covers(a));
    EXPECT_TRUE(a.Covers(WideClassMask()));  // empty sub always covered
    EXPECT_TRUE(WideClassMask::FirstN(kMaxBatchClasses).Covers(a));
    if (a.count() < kMaxBatchClasses) {
      // Adding one stray bit outside `a` breaks coverage.
      WideClassMask sub = a;
      for (size_t k = 0; k < kMaxBatchClasses; ++k) {
        if (!a.Test(k)) {
          sub.Set(k);
          break;
        }
      }
      EXPECT_FALSE(a.Covers(sub));
    }
  }
}

TEST(WideClassMaskTest, ForEachSetBitAscending) {
  Rng rng(7);
  WideClassMask m = RandomMask(&rng, 0.1);
  std::vector<size_t> got;
  m.ForEachSetBit([&](size_t k) { got.push_back(k); });
  std::vector<size_t> want;
  for (size_t k = 0; k < kMaxBatchClasses; ++k) {
    if (m.Test(k)) want.push_back(k);
  }
  EXPECT_EQ(got, want);
}

// The benchmark's provenance line records the mask instruction set; the
// mask algebra is plain inline code, so the one name is "scalar".
TEST(MaskKernelsTest, NamesAreStable) {
  EXPECT_STREQ(MaskIsaName(MaskIsa::kScalar), "scalar");
  EXPECT_STREQ(MaskIsaName(ActiveMaskIsa()), "scalar");
}

}  // namespace
}  // namespace secxml
