#include "core/codebook.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"

namespace secxml {
namespace {

BitVector Bits(const std::string& s) {
  BitVector bv(s.size());
  for (size_t i = 0; i < s.size(); ++i) bv.Set(i, s[i] == '1');
  return bv;
}

TEST(CodebookTest, InternDeduplicates) {
  Codebook cb(3);
  AccessCodeId a = cb.Intern(Bits("101"));
  AccessCodeId b = cb.Intern(Bits("011"));
  AccessCodeId c = cb.Intern(Bits("101"));
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(cb.size(), 2u);
}

TEST(CodebookTest, EntryAndAccessible) {
  Codebook cb(3);
  AccessCodeId code = cb.Intern(Bits("101"));
  EXPECT_EQ(cb.Entry(code).ToString(), "101");
  EXPECT_TRUE(cb.Accessible(code, 0));
  EXPECT_FALSE(cb.Accessible(code, 1));
  EXPECT_TRUE(cb.Accessible(code, 2));
}

TEST(CodebookTest, FindWithoutIntern) {
  Codebook cb(2);
  EXPECT_EQ(cb.Find(Bits("10")), kInvalidAccessCode);
  AccessCodeId code = cb.Intern(Bits("10"));
  EXPECT_EQ(cb.Find(Bits("10")), code);
}

TEST(CodebookTest, AddSubjectLikeRejectsUnknownSubject) {
  Codebook cb(2);
  auto r = cb.AddSubjectLike(5);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cb.num_subjects(), 2u);  // nothing changed
}

TEST(CodebookTest, AccessibleFailsClosedOnBadInputs) {
  Codebook cb(2);
  AccessCodeId code = cb.Intern(Bits("11"));
  // Out-of-range code or subject (corrupt page bytes, stale caller state)
  // must deny, never read out of bounds.
  EXPECT_FALSE(cb.Accessible(code + 100, 0));
  EXPECT_FALSE(cb.Accessible(kInvalidAccessCode, 0));
  EXPECT_FALSE(cb.Accessible(code, 7));
  EXPECT_TRUE(cb.Accessible(code, 0));  // valid inputs still work
}

TEST(CodebookTest, AddSubjectExtendsEntries) {
  Codebook cb(2);
  AccessCodeId a = cb.Intern(Bits("10"));
  SubjectId s = cb.AddSubject(true);
  EXPECT_EQ(s, 2u);
  EXPECT_EQ(cb.num_subjects(), 3u);
  EXPECT_EQ(cb.Entry(a).ToString(), "101");
  // Existing codes stay stable; new interns use the new width.
  AccessCodeId b = cb.Intern(Bits("110"));
  EXPECT_NE(a, b);
}

TEST(CodebookTest, AddSubjectLikeCopiesColumn) {
  Codebook cb(2);
  AccessCodeId a = cb.Intern(Bits("10"));
  AccessCodeId b = cb.Intern(Bits("01"));
  auto s = cb.AddSubjectLike(0);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, 2u);
  EXPECT_EQ(cb.Entry(a).ToString(), "101");
  EXPECT_EQ(cb.Entry(b).ToString(), "010");
}

TEST(CodebookTest, RemoveSubjectKeepsIdsStable) {
  Codebook cb(3);
  AccessCodeId a = cb.Intern(Bits("110"));
  AccessCodeId b = cb.Intern(Bits("010"));
  AccessCodeId c = cb.Intern(Bits("011"));
  ASSERT_TRUE(cb.RemoveSubject(0).ok());
  EXPECT_EQ(cb.num_subjects(), 2u);
  // All three entries remain (ids embedded in pages must stay valid), but
  // a and b are now duplicates ("10").
  EXPECT_EQ(cb.size(), 3u);
  EXPECT_EQ(cb.Entry(a).ToString(), "10");
  EXPECT_EQ(cb.Entry(b).ToString(), "10");
  EXPECT_EQ(cb.Entry(c).ToString(), "11");
  EXPECT_EQ(cb.CountDistinct(), 2u);
  // Lookup resolves to the first duplicate deterministically.
  EXPECT_EQ(cb.Find(Bits("10")), a);
}

TEST(CodebookTest, RemoveInvalidSubjectFails) {
  Codebook cb(2);
  EXPECT_FALSE(cb.RemoveSubject(5).ok());
}

TEST(CodebookTest, ByteSizeMatchesPaperArithmetic) {
  // Paper Section 5.1.1: 8639 subjects -> ~1080-byte entries; 4000 entries
  // occupy ~4 MB.
  Codebook cb(8639);
  BitVector acl(8639);
  for (uint32_t i = 0; i < 4000; ++i) {
    acl.Set(i % 8639, !acl.Get(i % 8639));
    cb.Intern(acl);
  }
  EXPECT_EQ(cb.size(), 4000u);
  EXPECT_EQ(cb.ByteSize(), 4000u * 1080u);
  EXPECT_NEAR(static_cast<double>(cb.ByteSize()) / (1 << 20), 4.1, 0.1);
}

TEST(CodebookTest, ColumnMatchesPerEntryAccessible) {
  Codebook cb(5);
  std::vector<AccessCodeId> codes;
  codes.push_back(cb.Intern(Bits("10110")));
  codes.push_back(cb.Intern(Bits("01011")));
  codes.push_back(cb.Intern(Bits("11111")));
  codes.push_back(cb.Intern(Bits("00000")));
  for (SubjectId s = 0; s < 5; ++s) {
    BitVector column = cb.Column(s);
    ASSERT_EQ(column.size(), cb.size());
    for (AccessCodeId c : codes) {
      EXPECT_EQ(column.Get(c), cb.Accessible(c, s))
          << "subject " << s << " code " << c;
    }
  }
}

TEST(CodebookTest, ColumnFailsClosedOnUnknownSubject) {
  Codebook cb(2);
  cb.Intern(Bits("11"));
  cb.Intern(Bits("10"));
  BitVector column = cb.Column(9);
  ASSERT_EQ(column.size(), cb.size());
  for (size_t e = 0; e < column.size(); ++e) EXPECT_FALSE(column.Get(e));
}

TEST(CodebookTest, GroupSubjectsByColumnFindsEqualColumns) {
  Codebook cb(4);
  // Subjects 0 and 2 agree on every entry; 1 and 3 each differ somewhere.
  cb.Intern(Bits("1011"));
  cb.Intern(Bits("0100"));
  cb.Intern(Bits("1110"));
  std::vector<SubjectClass> classes =
      GroupSubjectsByColumn(cb, {0, 1, 2, 3});
  ASSERT_EQ(classes.size(), 3u);
  EXPECT_EQ(classes[0].members, (std::vector<SubjectId>{0, 2}));
  EXPECT_EQ(classes[0].representative(), 0u);
  EXPECT_EQ(classes[1].members, (std::vector<SubjectId>{1}));
  EXPECT_EQ(classes[2].members, (std::vector<SubjectId>{3}));
}

TEST(CodebookTest, GroupSubjectsByColumnGroupsUnknownSubjectsTogether) {
  Codebook cb(2);
  cb.Intern(Bits("10"));
  // Unknown subjects all have the fail-closed all-zero column — one class,
  // distinct from subject 0 but identical to subject 1 (denied everywhere).
  std::vector<SubjectClass> classes =
      GroupSubjectsByColumn(cb, {0, 7, 1, 9});
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].members, (std::vector<SubjectId>{0}));
  EXPECT_EQ(classes[1].members, (std::vector<SubjectId>{7, 1, 9}));
}

TEST(CodebookTest, ColumnFingerprintIsAPureContentHash) {
  // The fingerprint is a deterministic function of the column bits alone:
  // independently built codebooks with the same entry sequence agree, and
  // every fingerprint equals hashing the extracted column directly.
  Codebook a(3);
  Codebook b(3);
  for (const char* e : {"101", "011", "110"}) a.Intern(Bits(e));
  for (const char* e : {"101", "011", "110"}) b.Intern(Bits(e));
  for (SubjectId s = 0; s < 3; ++s) {
    EXPECT_EQ(a.ColumnFingerprintOf(s), b.ColumnFingerprintOf(s))
        << "subject " << s;
    EXPECT_EQ(a.ColumnFingerprintOf(s), ColumnFingerprint::Of(a.Column(s)));
  }
}

TEST(CodebookTest, CompactionRenumberingChangesFingerprints) {
  // Compaction dedups entries, which changes every column's content — and
  // therefore its fingerprint. That is the cache-safety property: a result
  // keyed under the old numbering becomes UNREACHABLE after compaction
  // instead of silently aliasing a different visibility class.
  Codebook cb(3);
  AccessCodeId a = cb.Intern(Bits("110"));
  cb.Intern(Bits("010"));
  cb.Intern(Bits("011"));
  ASSERT_TRUE(cb.RemoveSubject(0).ok());  // makes entries a and b duplicates
  ASSERT_GT(cb.size(), cb.CountDistinct());
  ColumnFingerprint before0 = cb.ColumnFingerprintOf(0);
  ColumnFingerprint before1 = cb.ColumnFingerprintOf(1);
  std::vector<AccessCodeId> mapping;
  Codebook compacted = cb.Compacted(&mapping);
  ASSERT_LT(compacted.size(), cb.size());
  EXPECT_NE(compacted.ColumnFingerprintOf(0), before0);
  EXPECT_NE(compacted.ColumnFingerprintOf(1), before1);
  // The compacted book still agrees with a direct column hash, and old
  // codes map onto entries with identical bits.
  EXPECT_EQ(compacted.ColumnFingerprintOf(0),
            ColumnFingerprint::Of(compacted.Column(0)));
  EXPECT_EQ(compacted.Entry(mapping[a]).ToString(), cb.Entry(a).ToString());
}

TEST(CodebookTest, ColumnFingerprintStableUnderAddSubject) {
  Codebook cb(2);
  cb.Intern(Bits("10"));
  cb.Intern(Bits("01"));
  ColumnFingerprint before0 = cb.ColumnFingerprintOf(0);
  ColumnFingerprint before1 = cb.ColumnFingerprintOf(1);
  EXPECT_EQ(cb.AddSubject(false), 2u);
  ASSERT_TRUE(cb.AddSubjectLike(0).ok());
  // Existing columns are untouched by appended subjects, and the copied
  // column fingerprints identically to its source.
  EXPECT_EQ(cb.ColumnFingerprintOf(0), before0);
  EXPECT_EQ(cb.ColumnFingerprintOf(1), before1);
  EXPECT_EQ(cb.ColumnFingerprintOf(3), before0);
}

TEST(CodebookTest, ColumnFingerprintChangesOnSingleBitFlip) {
  Codebook cb(2);
  cb.Intern(Bits("10"));
  cb.Intern(Bits("01"));
  Codebook flipped(2);
  flipped.Intern(Bits("10"));
  flipped.Intern(Bits("11"));  // one bit differs in subject 0's column
  EXPECT_NE(cb.ColumnFingerprintOf(0), flipped.ColumnFingerprintOf(0));
  EXPECT_NE(cb.ColumnFingerprintOf(0), cb.ColumnFingerprintOf(1));
}

TEST(CodebookTest, GroupSubjectsByColumnFillsFingerprints) {
  Codebook cb(4);
  cb.Intern(Bits("1011"));
  cb.Intern(Bits("0100"));
  cb.Intern(Bits("0011"));
  // Columns: s0 = 100, s1 = 010, s2 = s3 = 101 — three classes.
  std::vector<SubjectClass> classes = GroupSubjectsByColumn(cb, {0, 2, 1, 3});
  ASSERT_EQ(classes.size(), 3u);
  for (const SubjectClass& cls : classes) {
    EXPECT_EQ(cls.fingerprint,
              cb.ColumnFingerprintOf(cls.representative()));
    for (SubjectId s : cls.members) {
      EXPECT_EQ(cb.ColumnFingerprintOf(s), cls.fingerprint);
    }
  }
  // Distinct classes carry distinct fingerprints.
  EXPECT_NE(classes[0].fingerprint, classes[1].fingerprint);
  EXPECT_NE(classes[1].fingerprint, classes[2].fingerprint);
}

// The codebook the golden encoding below was serialized from: 70 subjects
// (rows span two words; the last byte is partial), five entries, then a
// subject added, one removed from the first word (every later bit shifts
// across the word boundary), and one copied from the second word.
Codebook GoldenCodebook() {
  Codebook cb(70);
  for (int k = 0; k < 5; ++k) {
    BitVector acl(70);
    for (size_t s = 0; s < 70; ++s) {
      acl.Set(s, (s * 7 + k * 13) % 5 < 2 || s == static_cast<size_t>(69 - k));
    }
    cb.Intern(acl);
  }
  cb.AddSubject(true);
  EXPECT_TRUE(cb.RemoveSubject(3).ok());
  EXPECT_TRUE(cb.AddSubjectLike(64).ok());
  return cb;
}

TEST(CodebookTest, SerializeMatchesGoldenEncoding) {
  // Produced by the per-entry BitVector codebook that preceded the flat
  // rows: checkpoints written by it must reopen, and checkpoints written
  // now must be byte-identical to what it would have written.
  const std::vector<uint8_t> golden = {
      0x42, 0x44, 0x43, 0x53, 0x47, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
      0x91, 0x52, 0x4a, 0x29, 0xa5, 0x94, 0x52, 0x4a, 0x79, 0x2a, 0xa5, 0x94,
      0x52, 0x4a, 0x29, 0xa5, 0x94, 0x3a, 0x55, 0x4a, 0x29, 0xa5, 0x94, 0x52,
      0x4a, 0x29, 0x65, 0xa2, 0x94, 0x52, 0x4a, 0x29, 0xa5, 0x94, 0x52, 0x2a,
      0x4c, 0x29, 0xa5, 0x94, 0x52, 0x4a, 0x29, 0xa5, 0x75};
  Codebook cb = GoldenCodebook();
  EXPECT_EQ(cb.Serialize(), golden);
  auto back = Codebook::Deserialize(golden);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->num_subjects(), 71u);
  ASSERT_EQ(back->size(), cb.size());
  for (AccessCodeId c = 0; c < cb.size(); ++c) {
    EXPECT_EQ(back->Entry(c), cb.Entry(c)) << "code " << c;
    EXPECT_EQ(back->Find(cb.Entry(c)), c);
  }
  EXPECT_EQ(back->Serialize(), golden);
}

TEST(CodebookTest, SubjectChurnAcrossAWordBoundaryKeepsEveryBit) {
  // A per-entry model beside the flat rows: 63 subjects grow to 66 (rows
  // widen from one word to two) and shrink back, removing subjects from
  // both words; every bit, column and lookup must agree after each step.
  Rng rng(64);
  Codebook cb(63);
  std::vector<BitVector> model;
  for (int i = 0; i < 300; ++i) {
    BitVector acl(63);
    for (size_t s = 0; s < 63; ++s) acl.Set(s, rng.Bernoulli(0.5));
    if (cb.Intern(acl) == model.size()) model.push_back(acl);
  }
  auto check = [&](const char* when) {
    ASSERT_EQ(cb.size(), model.size()) << when;
    ASSERT_EQ(cb.num_subjects(), model[0].size()) << when;
    for (AccessCodeId c = 0; c < model.size(); ++c) {
      ASSERT_EQ(cb.Entry(c), model[c]) << when << " code " << c;
    }
    for (SubjectId s = 0; s < cb.num_subjects(); ++s) {
      BitVector column = cb.Column(s);
      for (AccessCodeId c = 0; c < model.size(); ++c) {
        ASSERT_EQ(column.Get(c), model[c].Get(s)) << when;
        ASSERT_EQ(cb.Accessible(c, s), model[c].Get(s)) << when;
      }
    }
    // The first of each duplicate family answers lookups.
    for (AccessCodeId c = 0; c < model.size(); ++c) {
      AccessCodeId first = c;
      for (AccessCodeId d = 0; d < c; ++d) {
        if (model[d] == model[c]) {
          first = d;
          break;
        }
      }
      ASSERT_EQ(cb.Find(model[c]), first) << when << " code " << c;
    }
  };
  check("initial");
  cb.AddSubject(true);  // 64: fills the first word
  for (BitVector& acl : model) acl.PushBack(true);
  check("64 subjects");
  ASSERT_TRUE(cb.AddSubjectLike(5).ok());  // 65: the first bit of word two
  for (BitVector& acl : model) acl.PushBack(acl.Get(5));
  check("65 subjects");
  cb.AddSubject(false);  // 66
  for (BitVector& acl : model) acl.PushBack(false);
  check("66 subjects");
  for (SubjectId gone : {SubjectId{64}, SubjectId{0}, SubjectId{40}}) {
    ASSERT_TRUE(cb.RemoveSubject(gone).ok());
    for (BitVector& acl : model) acl.Erase(gone);
    check("after removal");
  }
  EXPECT_EQ(cb.num_subjects(), 63u);
}

TEST(CodebookTest, DuplicatesLeftByRemovalKeepFirstOccurrence) {
  Codebook cb(3);
  AccessCodeId a = cb.Intern(Bits("110"));
  cb.Intern(Bits("010"));
  AccessCodeId c = cb.Intern(Bits("011"));
  cb.Intern(Bits("111"));
  ASSERT_TRUE(cb.RemoveSubject(0).ok());  // a == b == "10", c == d == "11"
  EXPECT_EQ(cb.Find(Bits("10")), a);
  EXPECT_EQ(cb.Intern(Bits("10")), a);
  EXPECT_EQ(cb.Find(Bits("11")), c);
  EXPECT_EQ(cb.Intern(Bits("11")), c);
  EXPECT_EQ(cb.size(), 4u);  // interning a duplicate appends nothing
  EXPECT_EQ(cb.CountDistinct(), 2u);
  // Re-indexing (a subject added) and copying keep the same winners.
  cb.AddSubject(false);
  EXPECT_EQ(cb.Find(Bits("100")), a);
  Codebook copy = cb;
  EXPECT_EQ(copy.Intern(Bits("100")), a);
  EXPECT_EQ(copy.Find(Bits("110")), c);
}

TEST(CodebookTest, CopyThatInternsLeavesTheOriginalUnchanged) {
  // An update stages on a copy of the committed codebook; interning into
  // the copy must never show through to readers of the original.
  Codebook original(5);
  for (const char* e : {"10110", "01011", "11111"}) original.Intern(Bits(e));
  const std::vector<uint8_t> before = original.Serialize();
  Codebook staged = original;
  for (uint32_t v = 0; v < 32; ++v) {
    BitVector acl(5);
    for (int i = 0; i < 5; ++i) acl.Set(i, (v >> i) & 1);
    staged.Intern(acl);  // grows the copy's rows and index
  }
  EXPECT_EQ(staged.size(), 32u);
  EXPECT_EQ(original.size(), 3u);
  EXPECT_EQ(original.Serialize(), before);
  EXPECT_EQ(original.Find(Bits("00000")), kInvalidAccessCode);
  EXPECT_EQ(original.Find(Bits("01011")), 1u);
  EXPECT_FALSE(original.Accessible(3, 0));  // code 3 exists only in the copy
  EXPECT_EQ(original.Column(0).size(), 3u);
}

TEST(CodebookTest, DeserializeRejectsAnEntryCountTheBlobCannotHold) {
  // Header: magic, 256 subjects (32-byte entries), ~4 billion entries —
  // then one entry's worth of bytes. Allocating for the claimed count
  // first would need ~128 GiB; the count must be checked before that.
  std::vector<uint8_t> blob(12 + 32, 0);
  const uint32_t header[3] = {0x53434442u, 256, 0xfffffff0u};
  std::memcpy(blob.data(), header, sizeof(header));
  auto r = Codebook::Deserialize(blob);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  // One entry fits exactly.
  const uint32_t one = 1;
  std::memcpy(blob.data() + 8, &one, sizeof(one));
  auto ok = Codebook::Deserialize(blob);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->size(), 1u);
}

TEST(CodebookTest, ManyDistinctEntries) {
  Codebook cb(16);
  for (uint32_t v = 0; v < 65536; v += 7) {
    BitVector acl(16);
    for (int i = 0; i < 16; ++i) acl.Set(i, (v >> i) & 1);
    cb.Intern(acl);
  }
  EXPECT_EQ(cb.size(), (65536u + 6) / 7);
  EXPECT_EQ(cb.CountDistinct(), cb.size());
}

}  // namespace
}  // namespace secxml
