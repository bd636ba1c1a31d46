#ifndef SECXML_PERFBENCH_INPUTS_H_
#define SECXML_PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "core/accessibility_map.h"
#include "query/pattern_tree.h"

namespace secxml::perfbench {

/// The 256-subject pool shared by every workload. Subjects below
/// kRoleSubjects hold one of kRoles role profiles (subject s draws profile
/// s % kRoles), so they collapse into a few visibility classes; the rest
/// each draw a profile of their own, which is what makes batches wider than
/// one 64-bit mask word.
inline constexpr size_t kPoolSubjects = 256;
inline constexpr size_t kRoleSubjects = 192;
inline constexpr size_t kRoles = 12;

/// XMark document size: about 1000 NoK pages, 16x the 64-page pools.
inline constexpr uint32_t kDocumentNodes = 200000;

/// Generated twigs added to Table 1's Q1-Q6. Wildcards are off: with them a
/// few `//*` scans took most of the time and set the tail alone.
inline constexpr int kGeneratedTwigs = 26;

/// Everything a workload needs, made from the seed before any timing.
struct Inputs {
  uint64_t seed = 0;
  /// The XMark document as XML text (set-up parses it).
  std::string xml;
  NodeId num_nodes = 0;
  /// Synthetic ACLs of the pool at 0.6 accessibility, root forced
  /// accessible: node 0's ACL plus the document-order event stream
  /// DolLabeling::BuildFromEvents consumes.
  BitVector initial_acl;
  std::vector<AclEvent> events;
  /// Each subject's accessible intervals (the ACL writer picks its targets
  /// inside them, so a revoke/re-grant pair restores the original state).
  std::vector<std::vector<NodeInterval>> accessible;
  /// Table 1 Q1-Q6 followed by kGeneratedTwigs generated twigs.
  std::vector<PatternTree> queries;
  /// FNV-1a digest of all of the above.
  uint64_t digest = 0;
};

/// Derives an independent sub-seed for stream `tag` of the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

/// Generates the inputs for `seed`.
Status GenerateInputs(uint64_t seed, Inputs* out);

/// FNV-1a accumulation helpers (answer and input digests).
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline uint64_t FnvAdd(uint64_t h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline uint64_t FnvAddNodes(uint64_t h, const std::vector<NodeId>& nodes) {
  const uint64_t n = nodes.size();
  h = FnvAdd(h, &n, sizeof n);
  return nodes.empty() ? h
                       : FnvAdd(h, nodes.data(), nodes.size() * sizeof(NodeId));
}

}  // namespace secxml::perfbench

#endif  // SECXML_PERFBENCH_INPUTS_H_
