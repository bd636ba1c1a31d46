#include "query/evaluator.h"

#include "query/batch_evaluator.h"
#include "query/xpath_parser.h"

namespace secxml {

Status PrepareQuery(const PatternTree& pattern, PreparedQuery* out) {
  *out = PreparedQuery();
  SECXML_RETURN_NOT_OK(Decompose(pattern, &out->query));
  const size_t nf = out->query.fragments.size();

  out->children.resize(nf);
  for (size_t f = 1; f < nf; ++f) {
    out->children[out->query.fragments[f].parent_fragment].push_back(
        static_cast<int>(f));
  }

  out->designated.resize(nf);
  out->child_slot.resize(nf);
  out->ret_slot.assign(nf, -1);
  for (size_t f = 0; f < nf; ++f) {
    auto slot_for = [&](int local) {
      auto& des = out->designated[f];
      for (size_t i = 0; i < des.size(); ++i) {
        if (des[i] == local) return static_cast<int>(i);
      }
      des.push_back(local);
      return static_cast<int>(des.size() - 1);
    };
    for (int c : out->children[f]) {
      out->child_slot[f].push_back(
          slot_for(out->query.fragments[c].source_in_parent));
    }
    if (out->query.fragments[f].returning_local >= 0) {
      out->ret_slot[f] = slot_for(out->query.fragments[f].returning_local);
    }
  }
  return Status::OK();
}

Status CheckSubjects(SecureStore* store, AccessSemantics semantics,
                     std::span<const SubjectId> subjects) {
  if (semantics == AccessSemantics::kNone) return Status::OK();
  SecureStore::SnapshotPin pin(store);
  const size_t known = store->codebook().num_subjects();
  for (SubjectId s : subjects) {
    if (s >= known) return Status::InvalidArgument("no such subject");
  }
  return Status::OK();
}

Result<EvalResult> QueryEvaluator::EvaluateXPath(std::string_view xpath,
                                                 const EvalOptions& options) {
  PatternTree pattern;
  SECXML_RETURN_NOT_OK(ParseXPath(xpath, &pattern));
  return Evaluate(pattern, options);
}

Result<EvalResult> QueryEvaluator::Evaluate(const PatternTree& pattern,
                                            const EvalOptions& options) {
  PreparedQuery pq;
  SECXML_RETURN_NOT_OK(PrepareQuery(pattern, &pq));
  return EvaluatePrepared(pq, options);
}

Result<EvalResult> QueryEvaluator::EvaluatePrepared(
    const PreparedQuery& pq, const EvalOptions& options) {
  // Pin one epoch for the whole evaluation: every snapshot-dependent read
  // below (codebook column, page directory, hidden intervals) resolves
  // against this snapshot even if updates commit concurrently.
  SecureStore::SnapshotPin pin(store_);
  auto scan = [&](const PreparedQuery& q, const std::vector<SubjectId>& reps,
                  std::vector<std::vector<BatchFragmentMatch>>* matches,
                  std::vector<OperatorStats>* operators) -> Status {
    SECXML_ASSIGN_OR_RETURN(ExecStats stats,
                            ScanFragments(store_, q, options, reps, matches));
    // The evaluation's snapshot pin is attributed here (one per query).
    stats.epoch_pins = 1;
    operators->push_back({"scan", stats});
    return Status::OK();
  };
  return EvaluateOneClass(store_, pq, options, scan);
}

}  // namespace secxml
