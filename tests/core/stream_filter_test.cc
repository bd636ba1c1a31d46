#include "core/stream_filter.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/policy.h"
#include "xml/sax.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"
#include "xml/xmark_generator.h"

namespace secxml {
namespace {

DolLabeling SingleSubjectLabeling(const Document& doc,
                                  const std::vector<bool>& accessible) {
  DenseAccessMap map(static_cast<NodeId>(doc.NumNodes()), 1);
  for (NodeId n = 0; n < doc.NumNodes(); ++n) {
    if (accessible[n]) map.Set(0, n, true);
  }
  return DolLabeling::Build(map);
}

std::string FilterStream(const std::string& xml, const DolLabeling& labeling) {
  std::string out;
  SecureStreamFilter filter(&labeling, 0, &out);
  Status st = ParseXmlStream(xml, &filter);
  EXPECT_TRUE(st.ok()) << st;
  return out;
}

TEST(SecureStreamFilterTest, PassesEverythingWhenAllAccessible) {
  const std::string xml = "<a><b>hi</b><c x=\"1\"/></a>";
  Document doc;
  ASSERT_TRUE(ParseXml(xml, &doc).ok());
  DolLabeling labeling =
      SingleSubjectLabeling(doc, std::vector<bool>(doc.NumNodes(), true));
  EXPECT_EQ(FilterStream(xml, labeling), xml);
}

TEST(SecureStreamFilterTest, HiddenRootYieldsEmptyOutput) {
  const std::string xml = "<a><b/></a>";
  Document doc;
  ASSERT_TRUE(ParseXml(xml, &doc).ok());
  DolLabeling labeling = SingleSubjectLabeling(doc, {false, true});
  EXPECT_EQ(FilterStream(xml, labeling), "");
}

TEST(SecureStreamFilterTest, SuppressesWholeSubtree) {
  // a(b(c) d): hide b; c disappears with it even though c is accessible.
  const std::string xml = "<a><b><c/></b><d/></a>";
  Document doc;
  ASSERT_TRUE(ParseXml(xml, &doc).ok());
  DolLabeling labeling =
      SingleSubjectLabeling(doc, {true, false, true, true});
  EXPECT_EQ(FilterStream(xml, labeling), "<a><d/></a>");
}

TEST(SecureStreamFilterTest, HiddenAttributeOmitted) {
  const std::string xml = R"(<a x="1" y="2"><b/></a>)";
  Document doc;
  ASSERT_TRUE(ParseXml(xml, &doc).ok());
  // Nodes: a, @x, @y, b. Hide @x.
  DolLabeling labeling =
      SingleSubjectLabeling(doc, {true, false, true, true});
  EXPECT_EQ(FilterStream(xml, labeling), R"(<a y="2"><b/></a>)");
}

TEST(SecureStreamFilterTest, TextAndEntitiesSurvive) {
  const std::string xml = "<a>x &lt; y<b>&amp;</b></a>";
  Document doc;
  ASSERT_TRUE(ParseXml(xml, &doc).ok());
  DolLabeling labeling =
      SingleSubjectLabeling(doc, std::vector<bool>(doc.NumNodes(), true));
  std::string out = FilterStream(xml, labeling);
  Document round;
  ASSERT_TRUE(ParseXml(out, &round).ok());
  EXPECT_EQ(round.Value(0), "x < y");
  EXPECT_EQ(round.Value(1), "&");
}

TEST(SecureStreamFilterTest, StreamTooLongForLabelingFails) {
  const std::string xml = "<a><b/></a>";
  DenseAccessMap map(1, 1, true);
  DolLabeling labeling = DolLabeling::Build(map);
  std::string out;
  SecureStreamFilter filter(&labeling, 0, &out);
  EXPECT_FALSE(ParseXmlStream(xml, &filter).ok());
}

TEST(SecureStreamFilterTest, MatchesMaterializedFilteredWriter) {
  // Property: the one-pass stream filter and the in-memory filtered writer
  // produce structurally identical views.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    XMarkOptions opts;
    opts.seed = seed;
    opts.target_nodes = 2500;
    Document doc;
    ASSERT_TRUE(GenerateXMark(opts, &doc).ok());
    std::string xml = WriteXml(doc);

    Rng rng(seed * 71);
    std::vector<AclSeed> seeds = {{0, true}};
    for (int i = 0; i < 30; ++i) {
      seeds.push_back({static_cast<NodeId>(rng.Uniform(doc.NumNodes())),
                       rng.Bernoulli(0.5)});
    }
    IntervalAccessMap map(static_cast<NodeId>(doc.NumNodes()), 1);
    map.SetSubjectIntervals(0, PropagateMostSpecificOverride(doc, seeds));
    DolLabeling labeling = DolLabeling::BuildFromEvents(
        map.num_nodes(), map.InitialAcl(), map.CollectEvents());

    // Reference: visibility with whole-subtree pruning.
    std::vector<bool> visible(doc.NumNodes());
    for (NodeId n = 0; n < doc.NumNodes(); ++n) {
      NodeId p = doc.Parent(n);
      visible[n] = labeling.Accessible(0, n) &&
                   (p == kInvalidNode || visible[p]);
    }
    std::string expected = WriteXmlFiltered(
        doc, [&visible](NodeId n) { return visible[n]; });

    std::string streamed = FilterStream(xml, labeling);
    if (expected.empty()) {
      EXPECT_TRUE(streamed.empty());
      continue;
    }
    Document a, b;
    ASSERT_TRUE(ParseXml(expected, &a).ok());
    ASSERT_TRUE(ParseXml(streamed, &b).ok()) << streamed.substr(0, 200);
    ASSERT_EQ(a.NumNodes(), b.NumNodes()) << "seed " << seed;
    for (NodeId n = 0; n < a.NumNodes(); ++n) {
      ASSERT_EQ(a.TagName(n), b.TagName(n));
      ASSERT_EQ(a.SubtreeSize(n), b.SubtreeSize(n));
      ASSERT_EQ(a.Value(n), b.Value(n));
    }
  }
}

}  // namespace
}  // namespace secxml
