// The serving contract's one reference answer and one verifier.
//
// Every layer above the kernel — the QueryRouter, the shard fleet, the
// scenario catalog, the CLI replay drivers — promises the same thing: an
// OK answer names the snapshot it was computed against and equals, field
// for field with exact double equality, what a fresh synchronous
// DisclosureAnalyzer over that snapshot's bucketization returns. This file
// states that promise once. ReferenceAnswer computes the expected answer
// with the analyzer's dedicated point queries (MaxDisclosureImplications,
// Profile, PerBucketDisclosure); it shares no code with the router's
// coalesced ServeBatch path, so a drift in either shows as a mismatch.
// AnswerOracle checks served answers against it over a registry of every
// published snapshot.

#ifndef CKSAFE_SERVE_ANSWER_ORACLE_H_
#define CKSAFE_SERVE_ANSWER_ORACLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "cksafe/core/disclosure.h"
#include "cksafe/serve/query_router.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/util/status.h"

namespace cksafe {

/// The answer a fresh analyzer gives for `query`, tagged with
/// `snapshot_sequence`. `analyzer` must run over the snapshot's
/// bucketization (its table cache is answer-invisible, so a cache-backed
/// analyzer is fine). Fields a kind does not set keep their QueryAnswer
/// defaults, exactly as the router leaves them. OutOfRange for a
/// kPerBucket bucket past the snapshot's last, as the router reports it.
StatusOr<QueryAnswer> ReferenceAnswer(const DisclosureAnalyzer& analyzer,
                                      uint64_t snapshot_sequence,
                                      const Query& query);

/// Checks served answers against ReferenceAnswer. Caches one analyzer per
/// snapshot; not thread-safe.
class AnswerOracle {
 public:
  explicit AnswerOracle(SnapshotRegistry registry)
      : registry_(std::move(registry)) {}

  /// The reference answer for `query` over the registered snapshot
  /// (query.tenant, sequence). Internal if that snapshot was never
  /// published; OutOfRange as ReferenceAnswer.
  StatusOr<QueryAnswer> Expected(const Query& query, uint64_t sequence);

  /// OK iff `answer` equals Expected(query, answer.snapshot_sequence) on
  /// all five fields with exact ==. Otherwise Internal naming the first
  /// field that differs, or Expected's error.
  Status Check(const Query& query, const QueryAnswer& answer);

 private:
  SnapshotRegistry registry_;
  std::map<std::pair<std::string, uint64_t>,
           std::unique_ptr<DisclosureAnalyzer>>
      analyzers_;
};

}  // namespace cksafe

#endif  // CKSAFE_SERVE_ANSWER_ORACLE_H_
