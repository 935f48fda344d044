// serve/: snapshot stores, the batching QueryRouter, and the ServingEngine.
//
// The load-bearing assertions are the bit-identity ones: every answer the
// router produces must equal — with exact double equality — what a fresh
// synchronous DisclosureAnalyzer over the answering snapshot's
// bucketization returns, for all four query kinds. Coalescing is asserted
// through the sweep counters: one batch of mixed queries must cost one
// profile sweep (plus one per-bucket sweep per distinct audited budget).

#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cksafe/core/disclosure.h"
#include "cksafe/search/publisher.h"
#include "cksafe/serve/answer_oracle.h"
#include "cksafe/serve/query_router.h"
#include "cksafe/serve/release_snapshot.h"
#include "cksafe/serve/serving_engine.h"
#include "cksafe/serve/snapshot_store.h"
#include "testing_util.h"

namespace cksafe {
namespace {

using testing::MakeBuckets;
using testing::MakeHospitalBucketization;
using testing::MakeHospitalTable;
using testing::RandomHistograms;
using testing::SyntheticBuckets;

std::shared_ptr<const ReleaseSnapshot> HospitalSnapshot(
    const Table& table, uint64_t sequence) {
  return MakeReleaseSnapshot(sequence, MakeHospitalBucketization(table));
}

TEST(SnapshotStoreTest, PublishSwapsAndOldReadersKeepTheirView) {
  const Table table = MakeHospitalTable();
  SnapshotStore store;
  EXPECT_EQ(store.Current(), nullptr);
  store.Publish(HospitalSnapshot(table, 1));
  const auto first = store.Current();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->sequence, 1u);
  store.Publish(HospitalSnapshot(table, 2));
  EXPECT_EQ(store.Current()->sequence, 2u);
  // The reader's pinned snapshot is unaffected by the swap.
  EXPECT_EQ(first->sequence, 1u);
  EXPECT_EQ(store.swaps(), 2u);
}

TEST(ServingDirectoryTest, GetOrAddIsStableAndFindReportsUnknown) {
  ServingDirectory directory;
  SnapshotStore* store = directory.GetOrAddTenant("gold");
  EXPECT_EQ(directory.GetOrAddTenant("gold"), store);
  EXPECT_EQ(directory.Find("gold"), store);
  EXPECT_EQ(directory.Find("nobody"), nullptr);
  EXPECT_EQ(directory.tenants(), std::vector<std::string>{"gold"});
}

class QueryRouterTest : public ::testing::Test {
 protected:
  QueryRouter::Options ManualOptions(size_t capacity = 64) {
    QueryRouter::Options options;
    options.queue_capacity = capacity;
    options.start_worker = false;
    return options;
  }
};

TEST_F(QueryRouterTest, AdmissionValidation) {
  ServingDirectory directory;
  QueryRouter router(&directory, ManualOptions());
  Query absurd;
  absurd.tenant = "t";
  absurd.k = Minimize2Forward::kMaxAnalysisBudget + 1;
  EXPECT_EQ(router.Submit(absurd).status().code(), StatusCode::kOutOfRange);
  Query bad_c;
  bad_c.tenant = "t";
  bad_c.kind = QueryKind::kIsCkSafe;
  bad_c.c = 0.0;
  EXPECT_EQ(router.Submit(bad_c).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(router.stats().submitted, 0u);
}

TEST_F(QueryRouterTest, BackpressureWhenQueueIsFull) {
  ServingDirectory directory;
  QueryRouter router(&directory, ManualOptions(/*capacity=*/2));
  Query query;
  query.tenant = "t";
  auto a = router.Submit(query);
  auto b = router.Submit(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto rejected = router.Submit(query);
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(router.stats().rejected, 1u);
  // Draining frees capacity; the pending futures resolve (as errors —
  // the tenant is unknown — but resolve).
  EXPECT_EQ(router.DrainOnce(), 2u);
  EXPECT_EQ(a.value().get().status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(router.Submit(query).ok());
  router.Stop();
}

TEST_F(QueryRouterTest, UnknownTenantAndUnpublishedTenantErrors) {
  ServingDirectory directory;
  directory.GetOrAddTenant("registered");
  QueryRouter router(&directory, ManualOptions());
  Query unknown;
  unknown.tenant = "ghost";
  Query unpublished;
  unpublished.tenant = "registered";
  auto a = router.Submit(unknown);
  auto b = router.Submit(unpublished);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(router.DrainOnce(), 2u);
  EXPECT_EQ(a.value().get().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(b.value().get().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(QueryRouterTest, BatchCoalescesToOneProfileSweepAndIsBitIdentical) {
  const Table table = MakeHospitalTable();
  const auto snapshot = HospitalSnapshot(table, 1);
  ServingDirectory directory;
  directory.GetOrAddTenant("t")->Publish(snapshot);
  QueryRouter router(&directory, ManualOptions());

  // A mixed batch: safety verdicts, disclosures, curve points, audits.
  std::vector<Query> queries;
  for (size_t k = 0; k <= 4; ++k) {
    Query safe;
    safe.tenant = "t";
    safe.kind = QueryKind::kIsCkSafe;
    safe.c = 0.6;
    safe.k = k;
    queries.push_back(safe);
    Query disclosure;
    disclosure.tenant = "t";
    disclosure.kind = QueryKind::kDisclosure;
    disclosure.k = k;
    queries.push_back(disclosure);
    Query profile;
    profile.tenant = "t";
    profile.kind = QueryKind::kProfileAtK;
    profile.k = k;
    queries.push_back(profile);
  }
  Query audit;
  audit.tenant = "t";
  audit.kind = QueryKind::kPerBucket;
  audit.k = 2;
  for (size_t bucket = 0; bucket < 2; ++bucket) {
    audit.bucket = bucket;
    queries.push_back(audit);
  }

  std::vector<std::future<StatusOr<QueryAnswer>>> futures;
  for (const Query& query : queries) {
    auto submitted = router.Submit(query);
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    futures.push_back(std::move(submitted).value());
  }
  EXPECT_EQ(router.DrainOnce(), queries.size());

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.profile_sweeps, 1u) << "batch must coalesce to ONE sweep";
  EXPECT_EQ(stats.per_bucket_sweeps, 1u) << "one audited budget, one sweep";
  EXPECT_EQ(stats.answered, queries.size());

  // Bit-identity, all five fields, against the reference oracle.
  AnswerOracle oracle({{{"t", 1}, snapshot}});
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto answer = futures[i].get();
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(answer->snapshot_sequence, 1u);
    EXPECT_EQ(oracle.Check(queries[i], *answer), Status::OK());
  }
}

// One ulp toward +inf (from +inf: toward 0), so every value moves.
double Nudge(double v) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return std::nextafter(v, v < kInf ? kInf : 0.0);
}

// The oracle must reject an answer that differs from the reference in any
// one field, for every kind — including the fields a kind leaves at their
// defaults and log_r on kProfileAtK.
TEST(AnswerOracleTest, RejectsEveryOneFieldPerturbationOfEveryKind) {
  const Table table = MakeHospitalTable();
  const auto snapshot = HospitalSnapshot(table, 1);
  AnswerOracle oracle({{{"t", 1}, snapshot}});
  DisclosureAnalyzer fresh(snapshot->bucketization);
  using Perturbation = void (*)(QueryAnswer*);
  const std::vector<std::pair<const char*, Perturbation>> perturbations = {
      {"snapshot_sequence", [](QueryAnswer* a) { ++a->snapshot_sequence; }},
      {"safe", [](QueryAnswer* a) { a->safe = !a->safe; }},
      {"disclosure",
       [](QueryAnswer* a) { a->disclosure = Nudge(a->disclosure); }},
      {"negation", [](QueryAnswer* a) { a->negation = Nudge(a->negation); }},
      {"log_r", [](QueryAnswer* a) { a->log_r = Nudge(a->log_r); }},
  };
  // k spans the bit-identity test's budgets, so the safety verdict is tied
  // to the Definition 13 point query wherever that test reads it.
  for (size_t k = 0; k <= 4; ++k) {
    for (QueryKind kind : {QueryKind::kIsCkSafe, QueryKind::kDisclosure,
                           QueryKind::kProfileAtK, QueryKind::kPerBucket}) {
      Query query;
      query.tenant = "t";
      query.kind = kind;
      query.c = 0.6;
      query.k = k;
      query.bucket = 1;
      SCOPED_TRACE(::testing::Message()
                   << "kind " << static_cast<int>(kind) << " k " << k);
      const auto expected = oracle.Expected(query, 1);
      ASSERT_TRUE(expected.ok()) << expected.status();
      EXPECT_EQ(oracle.Check(query, *expected), Status::OK());
      if (kind == QueryKind::kIsCkSafe) {
        EXPECT_EQ(expected->safe, fresh.IsCkSafe(query.c, query.k));
      }
      for (const auto& [field, perturb] : perturbations) {
        SCOPED_TRACE(field);
        QueryAnswer answer = *expected;
        perturb(&answer);
        EXPECT_EQ(oracle.Check(query, answer).code(), StatusCode::kInternal);
      }
    }
  }

  // A bucket past the snapshot's last is OutOfRange, as from the router,
  // and is never read.
  Query past_end;
  past_end.tenant = "t";
  past_end.kind = QueryKind::kPerBucket;
  past_end.k = 1;
  past_end.bucket = snapshot->bucketization.num_buckets();
  EXPECT_EQ(oracle.Expected(past_end, 1).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ReferenceAnswer(fresh, 1, past_end).status().code(),
            StatusCode::kOutOfRange);
  QueryAnswer served;
  served.snapshot_sequence = 1;
  EXPECT_EQ(oracle.Check(past_end, served).code(), StatusCode::kOutOfRange);
}

TEST_F(QueryRouterTest, CachedProfileServesRepeatBatchesWithoutResweeping) {
  const Table table = MakeHospitalTable();
  ServingDirectory directory;
  SnapshotStore* store = directory.GetOrAddTenant("t");
  store->Publish(HospitalSnapshot(table, 1));
  QueryRouter router(&directory, ManualOptions());

  Query query;
  query.tenant = "t";
  query.kind = QueryKind::kDisclosure;
  query.k = 3;
  auto first = router.Submit(query);
  ASSERT_TRUE(first.ok());
  router.DrainOnce();
  auto second = router.Submit(query);
  ASSERT_TRUE(second.ok());
  router.DrainOnce();
  EXPECT_EQ(router.stats().profile_sweeps, 1u)
      << "unchanged snapshot must be served from the cached profile";

  // Widening the budget re-sweeps once; the wider profile then serves both.
  query.k = 5;
  auto wider = router.Submit(query);
  ASSERT_TRUE(wider.ok());
  router.DrainOnce();
  EXPECT_EQ(router.stats().profile_sweeps, 2u);

  // A snapshot swap invalidates the cache.
  store->Publish(HospitalSnapshot(table, 2));
  auto after_swap = router.Submit(query);
  ASSERT_TRUE(after_swap.ok());
  router.DrainOnce();
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.profile_sweeps, 3u);
  EXPECT_EQ(stats.snapshot_reloads, 2u);
  EXPECT_EQ(after_swap.value().get()->snapshot_sequence, 2u);
}

TEST_F(QueryRouterTest, ProfileWidthSurvivesSnapshotReload) {
  // Regression (PR 7): a snapshot swap invalidates the cached profile, and
  // the next batch used to recompute at exactly its own maximum budget —
  // narrowing the cache, so a tenant alternating narrow and wide queries
  // paid a second sweep after every swap. The recomputed profile must come
  // back at the tenant's high-water budget (widening is answer-neutral:
  // column k of a wider sweep is bit-identical to a dedicated budget-k
  // sweep), making the post-swap wide query free.
  const Table table = MakeHospitalTable();
  ServingDirectory directory;
  SnapshotStore* store = directory.GetOrAddTenant("t");
  const auto snapshot1 = HospitalSnapshot(table, 1);
  store->Publish(snapshot1);
  QueryRouter router(&directory, ManualOptions());

  Query wide;
  wide.tenant = "t";
  wide.kind = QueryKind::kDisclosure;
  wide.k = 5;
  auto warmup = router.Submit(wide);
  ASSERT_TRUE(warmup.ok());
  router.DrainOnce();
  ASSERT_EQ(router.stats().profile_sweeps, 1u);

  // Swap, then serve a NARROW query first — the case that used to narrow
  // the cache.
  const auto snapshot2 = HospitalSnapshot(table, 2);
  store->Publish(snapshot2);
  Query narrow = wide;
  narrow.k = 2;
  auto post_swap_narrow = router.Submit(narrow);
  ASSERT_TRUE(post_swap_narrow.ok());
  router.DrainOnce();
  ASSERT_EQ(router.stats().profile_sweeps, 2u)
      << "the reload itself must cost exactly one fresh sweep";

  // The wide query now rides the already-wide cached profile: the pinned
  // count stays at 2 (it was 3 before the fix).
  auto post_swap_wide = router.Submit(wide);
  ASSERT_TRUE(post_swap_wide.ok());
  router.DrainOnce();
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.profile_sweeps, 2u)
      << "profile cache narrowed across the snapshot reload";
  EXPECT_EQ(stats.snapshot_reloads, 2u);  // initial load + the swap

  // And the answers are still the reference answers for snapshot 2.
  AnswerOracle oracle({{{"t", 2}, snapshot2}});
  const auto narrow_answer = post_swap_narrow.value().get();
  const auto wide_answer = post_swap_wide.value().get();
  ASSERT_TRUE(narrow_answer.ok() && wide_answer.ok());
  EXPECT_EQ(narrow_answer->snapshot_sequence, 2u);
  EXPECT_EQ(wide_answer->snapshot_sequence, 2u);
  EXPECT_EQ(oracle.Check(narrow, *narrow_answer), Status::OK());
  EXPECT_EQ(oracle.Check(wide, *wide_answer), Status::OK());
}

TEST_F(QueryRouterTest, PerBucketOutOfRangeIsAPerQueryError) {
  const Table table = MakeHospitalTable();
  ServingDirectory directory;
  directory.GetOrAddTenant("t")->Publish(HospitalSnapshot(table, 1));
  QueryRouter router(&directory, ManualOptions());
  Query good;
  good.tenant = "t";
  good.kind = QueryKind::kPerBucket;
  good.k = 1;
  good.bucket = 0;
  Query bad = good;
  bad.bucket = 99;
  auto good_future = router.Submit(good);
  auto bad_future = router.Submit(bad);
  ASSERT_TRUE(good_future.ok() && bad_future.ok());
  router.DrainOnce();
  EXPECT_TRUE(good_future.value().get().ok())
      << "a bad query must not poison its batch";
  EXPECT_EQ(bad_future.value().get().status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(QueryRouterTest, WorkerThreadModeAnswersIdenticallyToFresh) {
  Rng rng(0x5e7e5e7eULL);
  const SyntheticBuckets synthetic =
      MakeBuckets(RandomHistograms(&rng, 10, 4, 6), 4);
  const auto snapshot = MakeReleaseSnapshot(1, synthetic.bucketization);
  ServingDirectory directory;
  directory.GetOrAddTenant("t")->Publish(snapshot);
  QueryRouter router(&directory);  // worker thread mode
  AnswerOracle oracle({{{"t", 1}, snapshot}});
  for (size_t k = 0; k <= 5; ++k) {
    Query query;
    query.tenant = "t";
    query.kind = QueryKind::kDisclosure;
    query.k = k;
    const auto answer = router.Ask(query);
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_EQ(oracle.Check(query, *answer), Status::OK());
  }
  router.Stop();
}

TEST(ServingEngineTest, PublishesFromThePublisherPipelineAndServes) {
  const Table table = MakeHospitalTable();
  PublisherOptions options;
  options.c = 0.95;
  options.k = 1;
  Publisher publisher(options);
  std::vector<QuasiIdentifier> qis;
  for (size_t column : {size_t{0}, size_t{2}}) {
    qis.push_back(QuasiIdentifier{
        column, MakeDefaultHierarchy(table.schema().attribute(column))});
  }
  const auto release =
      publisher.Publish(table, qis, testing::kHospitalSensitiveColumn);
  ASSERT_TRUE(release.ok()) << release.status();

  ServingEngine engine;
  const auto published =
      engine.PublishRelease("hospital", *release, table.num_rows());
  ASSERT_TRUE(published.ok()) << published.status();
  const auto& snapshot = *published;
  EXPECT_EQ(snapshot->sequence, 1u);
  EXPECT_EQ(snapshot->num_rows, table.num_rows());

  Query query;
  query.tenant = "hospital";
  query.kind = QueryKind::kIsCkSafe;
  query.c = options.c;
  query.k = options.k;
  const auto answer = engine.Ask(query);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->safe) << "a published release must satisfy its policy";
  EXPECT_EQ(AnswerOracle({{{"hospital", 1}, snapshot}}).Check(query, *answer),
            Status::OK());

  // Republishing bumps the sequence; the router serves the new snapshot.
  const auto next =
      engine.PublishRelease("hospital", *release, table.num_rows());
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ((*next)->sequence, 2u);
  const auto answer2 = engine.Ask(query);
  ASSERT_TRUE(answer2.ok());
  EXPECT_EQ(answer2->snapshot_sequence, 2u);
}

}  // namespace
}  // namespace cksafe
