#include "core/dol_labeling.h"

#include <algorithm>
#include <cstring>
#include <cassert>
#include <unordered_map>

namespace secxml {

DolLabeling DolLabeling::Build(const AccessibilityMap& map) {
  DolLabeling dol;
  dol.num_nodes_ = map.num_nodes();
  dol.codebook_ = Codebook(map.num_subjects());
  BitVector prev, cur;
  for (NodeId n = 0; n < map.num_nodes(); ++n) {
    map.AclFor(n, &cur);
    if (n == 0 || cur != prev) {
      dol.transitions_.push_back({n, dol.codebook_.Intern(cur)});
      prev = cur;
    }
  }
  return dol;
}

DolLabeling DolLabeling::BuildFromEvents(NodeId num_nodes,
                                         BitVector initial_acl,
                                         const std::vector<AclEvent>& events) {
  DolLabeling dol;
  dol.num_nodes_ = num_nodes;
  dol.codebook_ = Codebook(initial_acl.size());
  BitVector cur = std::move(initial_acl);
  dol.transitions_.push_back({0, dol.codebook_.Intern(cur)});
  size_t i = 0;
  while (i < events.size()) {
    NodeId pos = events[i].pos;
    bool changed = false;
    while (i < events.size() && events[i].pos == pos) {
      if (cur.Get(events[i].subject) != events[i].accessible) {
        cur.Set(events[i].subject, events[i].accessible);
        changed = true;
      }
      ++i;
    }
    if (changed && pos < num_nodes && pos > 0) {
      AccessCodeId code = dol.codebook_.Intern(cur);
      if (code != dol.transitions_.back().code) {
        dol.transitions_.push_back({pos, code});
      }
    }
  }
  return dol;
}

DolLabeling DolLabeling::BuildFromRuns(const RunAccessMap& map) {
  DolLabeling dol;
  dol.num_nodes_ = map.num_nodes();
  dol.codebook_ = Codebook(map.num_subjects());
  for (size_t i = 0; i < map.num_runs(); ++i) {
    AccessCodeId code = dol.codebook_.Intern(map.run_acl(i));
    if (dol.transitions_.empty() || dol.transitions_.back().code != code) {
      dol.transitions_.push_back({map.run_start(i), code});
    }
  }
  return dol;
}

size_t DolLabeling::TransitionIndexFor(NodeId node) const {
  // Caller guarantees transitions_ is non-empty.
  // Last index with transitions_[idx].node <= node.
  size_t lo = 0, hi = transitions_.size();
  while (hi - lo > 1) {
    size_t mid = (lo + hi) / 2;
    if (transitions_[mid].node <= node) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

AccessCodeId DolLabeling::CodeAt(NodeId node) const {
  // Fail closed instead of asserting: an empty labeling or an out-of-range
  // node (corrupt caller state) yields the invalid code, which
  // Codebook::Accessible denies — release builds must not read out of
  // bounds here.
  if (transitions_.empty() || node >= num_nodes_) return kInvalidAccessCode;
  return transitions_[TransitionIndexFor(node)].code;
}

void DolLabeling::Normalize() {
  std::vector<DolEntry> out;
  out.reserve(transitions_.size());
  for (const DolEntry& e : transitions_) {
    if (!out.empty() && out.back().code == e.code) continue;
    out.push_back(e);
  }
  transitions_ = std::move(out);
}

Status DolLabeling::SetRangeAccess(NodeId begin, NodeId end, SubjectId subject,
                                   bool accessible) {
  if (begin >= end || end > num_nodes_) {
    return Status::InvalidArgument("bad node range");
  }
  if (subject >= codebook_.num_subjects()) {
    return Status::InvalidArgument("no such subject");
  }
  // Cache of old code -> code with the subject bit set to `accessible`.
  std::unordered_map<AccessCodeId, AccessCodeId> mapped;
  auto map_code = [&](AccessCodeId old) {
    auto it = mapped.find(old);
    if (it != mapped.end()) return it->second;
    BitVector acl = codebook_.Entry(old);
    acl.Set(subject, accessible);
    AccessCodeId neu = codebook_.Intern(acl);
    mapped.emplace(old, neu);
    return neu;
  };

  AccessCodeId code_at_end =
      end < num_nodes_ ? CodeAt(end) : kInvalidAccessCode;

  std::vector<DolEntry> out;
  out.reserve(transitions_.size() + 2);
  bool begin_emitted = false;
  for (const DolEntry& e : transitions_) {
    if (e.node < begin) {
      out.push_back(e);
      continue;
    }
    if (!begin_emitted) {
      // The run covering `begin` starts here (remapped). CodeAt still reads
      // the original, untouched transition list.
      out.push_back({begin, map_code(CodeAt(begin))});
      begin_emitted = true;
    }
    if (e.node < end) {
      if (e.node > begin) out.push_back({e.node, map_code(e.code)});
      // e.node == begin was already folded into the emitted entry above.
    } else {
      if (e.node > end && code_at_end != kInvalidAccessCode &&
          (out.empty() || out.back().node < end)) {
        out.push_back({end, code_at_end});
      }
      out.push_back(e);
    }
  }
  if (!begin_emitted) {
    out.push_back({begin, map_code(CodeAt(begin))});
  }
  if (end < num_nodes_ && out.back().node < end) {
    out.push_back({end, code_at_end});
  }
  transitions_ = std::move(out);
  Normalize();
  return Status::OK();
}

Status DolLabeling::InsertNodes(NodeId pos, const DolLabeling& fragment) {
  if (pos > num_nodes_) return Status::InvalidArgument("bad position");
  if (fragment.num_nodes_ == 0) return Status::OK();
  if (fragment.codebook_.num_subjects() != codebook_.num_subjects()) {
    return Status::InvalidArgument("fragment has a different subject set");
  }
  NodeId count = fragment.num_nodes_;
  AccessCodeId code_at_pos = pos < num_nodes_ ? CodeAt(pos) : kInvalidAccessCode;

  std::vector<DolEntry> out;
  out.reserve(transitions_.size() + fragment.transitions_.size() + 1);
  size_t i = 0;
  while (i < transitions_.size() && transitions_[i].node < pos) {
    out.push_back(transitions_[i]);
    ++i;
  }
  for (const DolEntry& e : fragment.transitions_) {
    out.push_back({e.node + pos, codebook_.Intern(fragment.codebook_.Entry(e.code))});
  }
  // The node previously at `pos` now sits at pos + count and must keep its
  // old code.
  if (code_at_pos != kInvalidAccessCode &&
      (i >= transitions_.size() || transitions_[i].node != pos)) {
    out.push_back({pos + count, code_at_pos});
  }
  for (; i < transitions_.size(); ++i) {
    out.push_back({transitions_[i].node + count, transitions_[i].code});
  }
  num_nodes_ += count;
  transitions_ = std::move(out);
  Normalize();
  return Status::OK();
}

Status DolLabeling::DeleteNodes(NodeId begin, NodeId end) {
  if (begin >= end || end > num_nodes_) {
    return Status::InvalidArgument("bad node range");
  }
  if (end - begin == num_nodes_) {
    return Status::InvalidArgument("cannot delete the entire document");
  }
  NodeId count = end - begin;
  AccessCodeId code_at_end = end < num_nodes_ ? CodeAt(end) : kInvalidAccessCode;

  std::vector<DolEntry> out;
  out.reserve(transitions_.size() + 1);
  for (const DolEntry& e : transitions_) {
    if (e.node < begin) {
      out.push_back(e);
    } else if (e.node >= end) {
      if (code_at_end != kInvalidAccessCode &&
          (out.empty() || out.back().node < begin)) {
        // The node previously at `end` now sits at `begin`.
        out.push_back({begin, code_at_end});
        code_at_end = kInvalidAccessCode;
      }
      out.push_back({e.node - count, e.code});
    }
  }
  if (code_at_end != kInvalidAccessCode &&
      (out.empty() || out.back().node < begin)) {
    out.push_back({begin, code_at_end});
  }
  num_nodes_ -= count;
  transitions_ = std::move(out);
  Normalize();
  return Status::OK();
}

Status DolLabeling::CheckInvariants() const {
  if (num_nodes_ == 0) {
    return transitions_.empty()
               ? Status::OK()
               : Status::Corruption("transitions in empty labeling");
  }
  if (transitions_.empty() || transitions_[0].node != 0) {
    return Status::Corruption("first transition must be at node 0");
  }
  for (size_t i = 0; i < transitions_.size(); ++i) {
    if (transitions_[i].node >= num_nodes_) {
      return Status::Corruption("transition beyond document");
    }
    if (transitions_[i].code >= codebook_.size()) {
      return Status::Corruption("dangling code");
    }
    if (i > 0) {
      if (transitions_[i].node <= transitions_[i - 1].node) {
        return Status::Corruption("transitions not strictly ascending");
      }
      if (transitions_[i].code == transitions_[i - 1].code) {
        return Status::Corruption("consecutive duplicate codes");
      }
    }
  }
  return Status::OK();
}

namespace {

constexpr uint32_t kDolMagic = 0x53444f4cu;  // "SDOL"

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

}  // namespace

std::vector<uint8_t> DolLabeling::Serialize() const {
  std::vector<uint8_t> out;
  PutU32(&out, kDolMagic);
  PutU32(&out, num_nodes_);
  PutU32(&out, static_cast<uint32_t>(transitions_.size()));
  for (const DolEntry& e : transitions_) {
    PutU32(&out, e.node);
    PutU32(&out, e.code);
  }
  std::vector<uint8_t> cb = codebook_.Serialize();
  PutU32(&out, static_cast<uint32_t>(cb.size()));
  out.insert(out.end(), cb.begin(), cb.end());
  return out;
}

Result<DolLabeling> DolLabeling::Deserialize(const std::vector<uint8_t>& data) {
  size_t pos = 0;
  uint32_t magic, num_nodes, num_transitions, cb_size;
  if (!TakeU32(data, &pos, &magic) || magic != kDolMagic) {
    return Status::Corruption("not a serialized DOL");
  }
  if (!TakeU32(data, &pos, &num_nodes) ||
      !TakeU32(data, &pos, &num_transitions)) {
    return Status::Corruption("truncated DOL header");
  }
  DolLabeling dol;
  dol.num_nodes_ = num_nodes;
  dol.transitions_.reserve(num_transitions);
  for (uint32_t i = 0; i < num_transitions; ++i) {
    DolEntry e;
    if (!TakeU32(data, &pos, &e.node) || !TakeU32(data, &pos, &e.code)) {
      return Status::Corruption("truncated transition list");
    }
    dol.transitions_.push_back(e);
  }
  if (!TakeU32(data, &pos, &cb_size) || pos + cb_size > data.size()) {
    return Status::Corruption("truncated codebook");
  }
  SECXML_ASSIGN_OR_RETURN(
      dol.codebook_,
      Codebook::Deserialize(std::vector<uint8_t>(
          data.begin() + static_cast<long>(pos),
          data.begin() + static_cast<long>(pos + cb_size))));
  SECXML_RETURN_NOT_OK(dol.CheckInvariants());
  return dol;
}

DolLabeling::Stats DolLabeling::ComputeStats(size_t code_bytes) const {
  Stats s;
  s.num_transitions = transitions_.size();
  s.codebook_entries = codebook_.size();
  s.codebook_bytes = codebook_.ByteSize();
  s.transition_bytes = transitions_.size() * code_bytes;
  s.total_bytes = s.codebook_bytes + s.transition_bytes;
  return s;
}

}  // namespace secxml
