// Selective dissemination: publish per-subscriber views of one XML document
// (the use case of paper Section 6's dissemination discussion — DOL works on
// arbitrarily fine-grained, instance-level sensitive data).
//
//   ./secure_publishing [target_nodes]
//
// Builds an XMark-like auction document, gives three subscriber classes
// different rights, and serializes each subscriber's view with
// whole-subtree pruning (Gabillon-Bruno view semantics) — exactly what a
// streaming disseminator would emit.

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/dol_labeling.h"
#include "core/policy.h"
#include "core/secure_store.h"
#include "storage/paged_file.h"
#include "xml/xmark_generator.h"
#include "xml/xml_writer.h"

int main(int argc, char** argv) {
  using namespace secxml;
  uint32_t nodes = 4000;
  if (argc > 1) nodes = static_cast<uint32_t>(std::atoi(argv[1]));

  XMarkOptions xopts;
  xopts.target_nodes = nodes;
  Document doc;
  if (!GenerateXMark(xopts, &doc).ok()) return 1;
  NodeId n = static_cast<NodeId>(doc.NumNodes());

  // Three subscriber classes:
  //  0 public mirror: regions and categories only — people and auctions are
  //    private;
  //  1 analyst: everything except people's personal data (addresses,
  //    profiles);
  //  2 auditor: everything.
  std::vector<AclSeed> public_rules = {{0, true}};
  std::vector<AclSeed> analyst_rules = {{0, true}};
  for (NodeId x = 0; x < n; ++x) {
    const std::string& tag = doc.TagName(x);
    if (tag == "people" || tag == "open_auctions" || tag == "closed_auctions") {
      public_rules.push_back({x, false});
    }
    if (tag == "address" || tag == "profile" || tag == "phone") {
      analyst_rules.push_back({x, false});
    }
  }
  IntervalAccessMap map(n, 3);
  map.SetSubjectIntervals(0, PropagateMostSpecificOverride(doc, public_rules));
  map.SetSubjectIntervals(1, PropagateMostSpecificOverride(doc, analyst_rules));
  map.SetSubjectIntervals(2, {{0, n}});

  DolLabeling labeling = DolLabeling::BuildFromEvents(n, map.InitialAcl(),
                                                      map.CollectEvents());
  MemPagedFile file;
  std::unique_ptr<SecureStore> store;
  if (!SecureStore::Build(doc, labeling, &file, {}, &store).ok()) return 1;

  std::printf("document: %u nodes; DOL: %zu transitions, %zu codebook "
              "entries (%zu bytes)\n\n", n, labeling.num_transitions(),
              labeling.codebook().size(), labeling.codebook().ByteSize());

  const char* names[] = {"public mirror", "analyst", "auditor"};
  for (SubjectId s = 0; s < 3; ++s) {
    // The view to publish: prune every subtree rooted at an inaccessible
    // node. HiddenSubtreeIntervals computes the pruned regions in one
    // document-order pass over the store.
    auto hidden = store->HiddenSubtreeIntervals(s);
    if (!hidden.ok()) return 1;
    const std::vector<NodeInterval>& list = **hidden;
    size_t hidden_nodes = 0;
    for (const NodeInterval& iv : list) hidden_nodes += iv.end - iv.begin;

    // Serialize the subscriber's view (WriteXmlFiltered prunes subtrees).
    // The writer does not visit nodes strictly in document order (it scans
    // a node's children for attributes first), so use a stateless binary
    // search over the hidden intervals.
    auto visible = [&list](NodeId x) {
      size_t lo = 0, hi = list.size();
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (list[mid].end <= x) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return !(lo < list.size() && list[lo].begin <= x);
    };
    std::string view = WriteXmlFiltered(doc, visible);
    std::printf("%-14s sees %6u of %u nodes (%zu pruned); view is %zu "
                "bytes of XML across %zu hidden region(s)\n", names[s],
                n - static_cast<uint32_t>(hidden_nodes), n, hidden_nodes,
                view.size(), list.size());
  }

  // A new subscriber class can be added without touching any page: clone
  // the analyst's rights in the codebook only.
  auto intern_or = store->AddSubjectLike(1);
  if (!intern_or.ok()) {
    std::fprintf(stderr, "AddSubjectLike: %s\n",
                 intern_or.status().ToString().c_str());
    return 1;
  }
  SubjectId intern = *intern_or;
  auto check = store->Accessible(intern, 0);
  std::printf("\nadded subject %u cloned from the analyst (codebook-only); "
              "root accessible: %s\n", intern,
              check.ok() && *check ? "yes" : "no");
  return 0;
}
