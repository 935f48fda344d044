// ShardFleet end-to-end: fork real shard processes, route over the wire,
// and hold the serving tier's one non-negotiable — every answer is
// bit-identical to a fresh synchronous DisclosureAnalyzer over the
// snapshot the answer names, across process boundaries and the codec.
// Plus the fleet-level mechanics: deterministic consistent-hash routing,
// in-flight-window backpressure (ResourceExhausted before any bytes
// move), stats scrape, and shutdown/restart.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cksafe/serve/release_snapshot.h"
#include "cksafe/shard/fleet.h"
#include "cksafe/util/random.h"
#include "shard_testing_util.h"
#include "testing_util.h"

namespace cksafe {
namespace {

using testing::RandomQuery;
using testing::RandomSnapshot;
using testing::ScopedTempDir;
using testing::SeedTrace;
using testing::TestIters;
using testing::TestSeed;

ShardFleetOptions BaseOptions(const std::string& socket_dir,
                              size_t num_shards) {
  ShardFleetOptions options;
  options.num_shards = num_shards;
  options.socket_dir = socket_dir;
  return options;
}

TEST(ShardFleetTest, AnswersAreBitIdenticalToAFreshAnalyzer) {
  const uint64_t seed = TestSeed(20260820);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  ScopedTempDir dir;
  auto fleet_or = ShardFleet::Start(BaseOptions(dir.path(), 3));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();

  const std::vector<std::string> tenants = {"gold", "std",  "free", "bulk",
                                            "acme", "zeta", "nova", "iris"};
  for (const std::string& tenant : tenants) {
    for (uint64_t sequence = 1; sequence <= 2; ++sequence) {
      ASSERT_TRUE(
          fleet->PublishSnapshot(tenant, RandomSnapshot(&rng, sequence)).ok());
    }
  }
  const SnapshotRegistry registry = fleet->PublishedRegistry();
  ASSERT_EQ(registry.size(), tenants.size() * 2);
  AnswerOracle oracle(registry);

  const size_t iters = TestIters(120);
  for (size_t i = 0; i < iters; ++i) {
    const Query query =
        RandomQuery(&rng, tenants[rng.NextBelow(tenants.size())]);
    const auto answer = fleet->Ask(query);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->snapshot_sequence, 2u);  // latest published
    EXPECT_EQ(oracle.Check(query, *answer), Status::OK())
        << "tenant " << query.tenant << " diverged from a fresh analyzer";
  }
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardFleetTest, RoutingIsDeterministicAndSpreadsTenants) {
  ScopedTempDir dir;
  auto fleet_or = ShardFleet::Start(BaseOptions(dir.path(), 3));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();

  std::vector<bool> used(fleet->num_shards(), false);
  for (size_t i = 0; i < 64; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i);
    const size_t shard = fleet->ShardOf(tenant);
    ASSERT_LT(shard, fleet->num_shards());
    EXPECT_EQ(fleet->ShardOf(tenant), shard);  // stable, no hidden state
    used[shard] = true;
  }
  // 64 tenants over a 3-shard, 16-virtual-node ring: every shard serves.
  for (size_t shard = 0; shard < used.size(); ++shard) {
    EXPECT_TRUE(used[shard]) << "shard " << shard << " owns no tenants";
  }
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardFleetTest, UnknownTenantAndOutOfRangeBucketReturnStatus) {
  const uint64_t seed = TestSeed(20260821);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  ScopedTempDir dir;
  auto fleet_or = ShardFleet::Start(BaseOptions(dir.path(), 2));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();

  Query unknown;
  unknown.tenant = "nobody";
  unknown.kind = QueryKind::kDisclosure;
  EXPECT_FALSE(fleet->Ask(unknown).ok());

  // 3 buckets published; probing bucket 99 is a per-query error that must
  // travel back over the wire as a Status, not poison the connection.
  ASSERT_TRUE(fleet->PublishSnapshot("gold", RandomSnapshot(&rng, 1)).ok());
  Query probe;
  probe.tenant = "gold";
  probe.kind = QueryKind::kPerBucket;
  probe.bucket = 99;
  EXPECT_FALSE(fleet->Ask(probe).ok());

  // The link survives both errors: a well-formed query still answers.
  Query fine;
  fine.tenant = "gold";
  fine.kind = QueryKind::kDisclosure;
  fine.k = 2;
  EXPECT_TRUE(fleet->Ask(fine).ok());
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardFleetTest, InFlightWindowShedsWithResourceExhausted) {
  const uint64_t seed = TestSeed(20260822);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  ScopedTempDir dir;
  ShardFleetOptions options = BaseOptions(dir.path(), 1);
  options.max_in_flight_per_shard = 4;
  options.test_stall_queries_ms = 200;  // hold queries so the window fills
  auto fleet_or = ShardFleet::Start(options);
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();
  ASSERT_TRUE(fleet->PublishSnapshot("gold", RandomSnapshot(&rng, 1)).ok());

  Query query;
  query.tenant = "gold";
  query.kind = QueryKind::kDisclosure;
  query.k = 1;
  std::vector<std::future<StatusOr<QueryAnswer>>> accepted;
  size_t shed = 0;
  for (size_t i = 0; i < 16; ++i) {
    auto submitted = fleet->Submit(query);
    if (submitted.ok()) {
      accepted.push_back(std::move(submitted).value());
    } else {
      EXPECT_EQ(submitted.status().code(), StatusCode::kResourceExhausted)
          << submitted.status().ToString();
      ++shed;
    }
  }
  EXPECT_LE(accepted.size(), 4u);  // never more than the window
  EXPECT_GT(shed, 0u);
  for (auto& future : accepted) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    const auto answer = future.get();
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  }
  // Window slots freed: the next submit is admitted again.
  EXPECT_TRUE(fleet->Submit(query).ok());
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardFleetTest, PingReportsPublishesTenantsAndAnsweredQueries) {
  const uint64_t seed = TestSeed(20260823);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  ScopedTempDir dir;
  auto fleet_or = ShardFleet::Start(BaseOptions(dir.path(), 2));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();

  const std::vector<std::string> tenants = {"gold", "std", "free"};
  for (const std::string& tenant : tenants) {
    ASSERT_TRUE(fleet->PublishSnapshot(tenant, RandomSnapshot(&rng, 1)).ok());
    Query query;
    query.tenant = tenant;
    query.kind = QueryKind::kDisclosure;
    query.k = 2;
    ASSERT_TRUE(fleet->Ask(query).ok());
  }

  uint64_t publishes = 0, tenant_count = 0, answered = 0;
  for (size_t shard = 0; shard < fleet->num_shards(); ++shard) {
    const auto stats = fleet->PingShard(shard);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    publishes += stats->publishes;
    tenant_count += stats->tenants;
    answered += stats->answered;
  }
  EXPECT_EQ(publishes, tenants.size());
  EXPECT_EQ(tenant_count, tenants.size());
  EXPECT_EQ(answered, tenants.size());
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

TEST(ShardFleetTest, ShutdownAllStopsServingAndRestartRecovers) {
  const uint64_t seed = TestSeed(20260824);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  ScopedTempDir dir;
  auto fleet_or = ShardFleet::Start(BaseOptions(dir.path(), 2));
  ASSERT_TRUE(fleet_or.ok()) << fleet_or.status().ToString();
  std::unique_ptr<ShardFleet> fleet = std::move(fleet_or).value();
  const auto snapshot = RandomSnapshot(&rng, 1);
  ASSERT_TRUE(fleet->PublishSnapshot("gold", snapshot).ok());

  ASSERT_TRUE(fleet->ShutdownAll().ok());
  for (size_t shard = 0; shard < fleet->num_shards(); ++shard) {
    EXPECT_TRUE(fleet->ShardDown(shard));
  }
  Query query;
  query.tenant = "gold";
  query.kind = QueryKind::kDisclosure;
  EXPECT_FALSE(fleet->Submit(query).ok());  // down => fail fast, no hang

  // Restarting a live shard is a caller error; restarting a down one
  // brings a fresh (empty, in-memory) shard back onto the same socket.
  for (size_t shard = 0; shard < fleet->num_shards(); ++shard) {
    ASSERT_TRUE(fleet->RestartShard(shard).ok());
    EXPECT_FALSE(fleet->ShardDown(shard));
    EXPECT_EQ(fleet->RestartShard(shard).code(),
              StatusCode::kFailedPrecondition);
  }
  // The in-memory shard forgot the tenant; re-adopting the same snapshot
  // (same sequence, same bytes) restores service.
  ASSERT_TRUE(fleet->PublishSnapshot("gold", snapshot).ok());
  query.k = 1;
  const auto answer = fleet->Ask(query);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(AnswerOracle(fleet->PublishedRegistry()).Check(query, *answer),
            Status::OK());
  EXPECT_TRUE(fleet->ShutdownAll().ok());
}

}  // namespace
}  // namespace cksafe
