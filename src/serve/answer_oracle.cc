#include "cksafe/serve/answer_oracle.h"

#include <vector>

#include "cksafe/util/string_util.h"

namespace cksafe {

StatusOr<QueryAnswer> ReferenceAnswer(const DisclosureAnalyzer& analyzer,
                                      uint64_t snapshot_sequence,
                                      const Query& query) {
  QueryAnswer answer;
  answer.snapshot_sequence = snapshot_sequence;
  switch (query.kind) {
    case QueryKind::kIsCkSafe:
    case QueryKind::kDisclosure: {
      const WorstCaseDisclosure worst =
          analyzer.MaxDisclosureImplications(query.k);
      answer.disclosure = worst.disclosure;
      answer.log_r = worst.log_r_min;
      if (query.kind == QueryKind::kIsCkSafe) {
        answer.safe = IsSafeLogRatio(worst.log_r_min, query.c);
      }
      break;
    }
    case QueryKind::kProfileAtK: {
      const DisclosureProfile profile = analyzer.Profile(query.k);
      answer.disclosure = profile.implication[query.k];
      answer.log_r = profile.implication_log_r[query.k];
      answer.negation = profile.negation[query.k];
      break;
    }
    case QueryKind::kPerBucket: {
      const size_t num_buckets = analyzer.bucket_stats().size();
      if (query.bucket >= num_buckets) {
        return Status::OutOfRange(StrFormat(
            "bucket %zu out of range (snapshot %llu has %zu buckets)",
            query.bucket, static_cast<unsigned long long>(snapshot_sequence),
            num_buckets));
      }
      answer.disclosure = analyzer.PerBucketDisclosure(query.k)[query.bucket];
      break;
    }
  }
  return answer;
}

StatusOr<QueryAnswer> AnswerOracle::Expected(const Query& query,
                                             uint64_t sequence) {
  const auto key = std::make_pair(query.tenant, sequence);
  const auto snapshot = registry_.find(key);
  if (snapshot == registry_.end()) {
    return Status::Internal(
        StrFormat("answer names unpublished snapshot %llu of tenant %s",
                  static_cast<unsigned long long>(sequence),
                  query.tenant.c_str()));
  }
  std::unique_ptr<DisclosureAnalyzer>& analyzer = analyzers_[key];
  if (analyzer == nullptr) {
    analyzer =
        std::make_unique<DisclosureAnalyzer>(snapshot->second->bucketization);
  }
  return ReferenceAnswer(*analyzer, sequence, query);
}

Status AnswerOracle::Check(const Query& query, const QueryAnswer& answer) {
  CKSAFE_ASSIGN_OR_RETURN(const QueryAnswer expected,
                          Expected(query, answer.snapshot_sequence));
  const char* field = nullptr;
  if (answer.safe != expected.safe) {
    field = "safe";
  } else if (answer.disclosure != expected.disclosure) {
    field = "disclosure";
  } else if (answer.negation != expected.negation) {
    field = "negation";
  } else if (answer.log_r != expected.log_r) {
    field = "log_r";
  }
  if (field == nullptr) return Status::OK();
  return Status::Internal(StrFormat(
      "answer diverged from a fresh analyzer on %s (tenant %s, snapshot "
      "%llu, kind %d, k %zu)",
      field, query.tenant.c_str(),
      static_cast<unsigned long long>(answer.snapshot_sequence),
      static_cast<int>(query.kind), query.k));
}

}  // namespace cksafe
