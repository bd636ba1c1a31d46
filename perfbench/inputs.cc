#include "inputs.h"

#include <utility>

#include "query/xpath_parser.h"
#include "workload/query_generator.h"
#include "workload/synthetic_acl.h"
#include "xml/document.h"
#include "xml/xmark_generator.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace secxml::perfbench {

namespace {

// The document and its twig mix are the same for every seed; the seed draws
// the access-control policy and the request streams. The mix sets the
// latency tail, and with a document and twigs drawn per seed the spread of
// the batch workloads' latencies across seeds was several times their
// spread across runs of one seed.
constexpr uint64_t kDocumentSeed = 2005;
constexpr uint64_t kTwigSeed = 5000;

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Status GenerateInputs(uint64_t seed, Inputs* out) {
  out->seed = seed;
  XMarkOptions xopts;
  xopts.seed = kDocumentSeed;
  xopts.target_nodes = kDocumentNodes;
  Document generated;
  SECXML_RETURN_NOT_OK(GenerateXMark(xopts, &generated));
  out->xml = WriteXml(generated);

  // ACLs and twigs refer to node ids of the document set-up parses, so they
  // are drawn from a parse of the text rather than from the generator's tree.
  Document doc;
  SECXML_RETURN_NOT_OK(ParseXml(out->xml, &doc));
  out->num_nodes = static_cast<NodeId>(doc.NumNodes());

  IntervalAccessMap map(out->num_nodes, kPoolSubjects);
  out->accessible.assign(kPoolSubjects, {});
  for (SubjectId s = 0; s < kPoolSubjects; ++s) {
    if (s >= kRoles && s < kRoleSubjects) {
      out->accessible[s] = out->accessible[s % kRoles];  // same role profile
    } else {
      SyntheticAclOptions aopts;
      aopts.seed = DeriveSeed(seed, 100 + s);
      aopts.accessibility_ratio = 0.6;
      aopts.force_root_accessible = true;
      out->accessible[s] = GenerateSyntheticAcl(doc, aopts);
    }
    map.SetSubjectIntervals(s, out->accessible[s]);
  }
  SECXML_RETURN_NOT_OK(map.Validate());
  out->initial_acl = map.InitialAcl();
  out->events = map.CollectEvents();

  out->queries.clear();
  for (const char* xpath : kTable1Queries) {
    PatternTree p;
    SECXML_RETURN_NOT_OK(ParseXPath(xpath, &p));
    out->queries.push_back(std::move(p));
  }
  for (int i = 0; i < kGeneratedTwigs; ++i) {
    QueryGenOptions qopts;
    qopts.seed = kTwigSeed + static_cast<uint64_t>(i);
    qopts.max_nodes = 4;
    qopts.wildcard_prob = 0.0;
    out->queries.push_back(GenerateTwigQuery(doc, qopts));
  }

  uint64_t h = FnvAdd(kFnvOffset, out->xml.data(), out->xml.size());
  for (const AclEvent& e : out->events) {
    const uint64_t packed = (static_cast<uint64_t>(e.pos) << 32) |
                            (static_cast<uint64_t>(e.subject) << 1) |
                            (e.accessible ? 1u : 0u);
    h = FnvAdd(h, &packed, sizeof packed);
  }
  for (const PatternTree& q : out->queries) {
    const std::string text = q.ToString();
    h = FnvAdd(h, text.data(), text.size());
  }
  out->digest = h;
  return Status::OK();
}

}  // namespace secxml::perfbench
