#include "obs/attribution.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "json_lint.h"
#include "obs/metrics.h"
#include "obs/slowops.h"

namespace iotdb {
namespace obs {
namespace {

uint64_t StageHistCount(Stage stage) {
  return MetricsRegistry::Global()
      .GetHistogram(std::string("attrib.") + StageName(stage) + "_micros")
      ->TakeSnapshot()
      .count;
}

TEST(StageTest, NamesAreStableSlugs) {
  EXPECT_STREQ(StageName(Stage::kCommitQueueWait), "commit_queue_wait");
  EXPECT_STREQ(StageName(Stage::kWalSync), "wal_sync");
  EXPECT_STREQ(StageName(Stage::kCommitWait), "commit_wait");
  EXPECT_STREQ(StageName(Stage::kFanoutSend), "fanout_send");
  EXPECT_STREQ(StageName(Stage::kQuorumWait), "quorum_wait");
  EXPECT_STREQ(StageName(Stage::kRetryBackoff), "retry_backoff");
}

TEST(StageTest, ClusterGroupIsTheDriverPathGroup) {
  int cluster = 0;
  for (int i = 0; i < kNumStages; ++i) {
    if (IsClusterStage(static_cast<Stage>(i))) ++cluster;
  }
  EXPECT_EQ(cluster, 3);
  EXPECT_TRUE(IsClusterStage(Stage::kQuorumWait));
  EXPECT_FALSE(IsClusterStage(Stage::kWalSync));
}

TEST(BreadcrumbTest, AddStageMicrosWithoutBreadcrumbIsNoOp) {
  ASSERT_EQ(CurrentBreadcrumb(), nullptr);
  AddStageMicros(Stage::kWalSync, 123);  // must not crash or record anywhere
}

TEST(BreadcrumbTest, CollectsStagesAndRecordsOnComplete) {
  uint64_t wal_before = StageHistCount(Stage::kWalSync);
  uint64_t commit_before = StageHistCount(Stage::kCommitWait);
  {
    ScopedOpBreadcrumb breadcrumb("test.op", 7, 100);
    ASSERT_NE(CurrentBreadcrumb(), nullptr);
    AddStageMicros(Stage::kWalSync, 40);
    AddStageMicros(Stage::kWalSync, 10);
    EXPECT_EQ(CurrentBreadcrumb()->stage_micros[static_cast<int>(
                  Stage::kWalSync)],
              50u);
    breadcrumb.Complete(1'000, 80);
    breadcrumb.Complete(1'000, 80);  // idempotent
  }
  EXPECT_EQ(CurrentBreadcrumb(), nullptr);
  // Only the stage the op passed through entered its distribution.
  EXPECT_EQ(StageHistCount(Stage::kWalSync), wal_before + 1);
  EXPECT_EQ(StageHistCount(Stage::kCommitWait), commit_before);
}

TEST(BreadcrumbTest, NeverCompletedRecordsNothing) {
  uint64_t before = StageHistCount(Stage::kCommitWait);
  {
    ScopedOpBreadcrumb breadcrumb("test.op.failed", 0, 1);
    AddStageMicros(Stage::kCommitWait, 9);
    // op failed: no Complete()
  }
  EXPECT_EQ(StageHistCount(Stage::kCommitWait), before);
}

TEST(BreadcrumbTest, NestedScopesRestoreOuter) {
  ScopedOpBreadcrumb outer("test.outer", 1, 1);
  OpBreadcrumb* outer_bc = CurrentBreadcrumb();
  {
    ScopedOpBreadcrumb inner("test.inner", 2, 1);
    EXPECT_NE(CurrentBreadcrumb(), outer_bc);
    AddStageMicros(Stage::kQuorumWait, 5);
  }
  EXPECT_EQ(CurrentBreadcrumb(), outer_bc);
  EXPECT_EQ(outer_bc->stage_micros[static_cast<int>(Stage::kQuorumWait)],
            0u);
}

TEST(SlowOpTest, KeepsKSlowestSorted) {
  SlowOpRecorder::StartRun(/*capacity=*/3);
  for (uint64_t total : {50u, 10u, 90u, 30u, 70u}) {
    OpBreadcrumb bc;
    bc.op = "test.slow";
    bc.total_micros = total;
    SlowOpRecorder::Offer(bc);
  }
  std::vector<SlowOpRecorder::Record> records =
      SlowOpRecorder::TakeSnapshot();
  SlowOpRecorder::StopRun();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].breadcrumb.total_micros, 90u);
  EXPECT_EQ(records[1].breadcrumb.total_micros, 70u);
  EXPECT_EQ(records[2].breadcrumb.total_micros, 50u);
}

TEST(SlowOpTest, StartRunClearsAndOfferNoOpsWhenDisarmed) {
  SlowOpRecorder::StartRun(4);
  OpBreadcrumb bc;
  bc.op = "test.slow";
  bc.total_micros = 5;
  SlowOpRecorder::Offer(bc);
  ASSERT_EQ(SlowOpRecorder::TakeSnapshot().size(), 1u);
  SlowOpRecorder::StopRun();
  SlowOpRecorder::Offer(bc);  // disarmed: rejected
  EXPECT_EQ(SlowOpRecorder::TakeSnapshot().size(), 1u);
  SlowOpRecorder::StartRun(4);
  EXPECT_TRUE(SlowOpRecorder::TakeSnapshot().empty());
  SlowOpRecorder::StopRun();
}

TEST(SlowOpTest, CompleteOffersBreadcrumbWithStages) {
  SlowOpRecorder::StartRun(8);
  {
    ScopedOpBreadcrumb breadcrumb("test.offered", 42, 7);
    AddStageMicros(Stage::kQuorumWait, 800);
    AddStageMicros(Stage::kFanoutSend, 100);
    breadcrumb.Complete(10'000, 1'000);
  }
  std::vector<SlowOpRecorder::Record> records =
      SlowOpRecorder::TakeSnapshot();
  SlowOpRecorder::StopRun();
  ASSERT_EQ(records.size(), 1u);
  const OpBreadcrumb& bc = records[0].breadcrumb;
  EXPECT_STREQ(bc.op, "test.offered");
  EXPECT_EQ(bc.trace_id, 42u);
  EXPECT_EQ(bc.kvps, 7u);
  EXPECT_EQ(bc.total_micros, 1'000u);
  EXPECT_EQ(bc.StageSum(), 900u);
}

TEST(SlowOpTest, ToJsonIsWellFormedAndCarriesStages) {
  SlowOpRecorder::StartRun(4);
  OpBreadcrumb bc;
  bc.op = "test.json";
  bc.trace_id = 0xabc;
  bc.total_micros = 2'000;
  bc.kvps = 11;
  bc.stage_micros[static_cast<int>(Stage::kQuorumWait)] = 1'500;
  SlowOpRecorder::Offer(bc);
  std::string json = SlowOpRecorder::ToJson();
  SlowOpRecorder::StopRun();

  EXPECT_TRUE(testing::JsonLint::Valid(json)) << json;
  EXPECT_NE(json.find("\"op\":\"test.json\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\":\"0xabc\""), std::string::npos);
  EXPECT_NE(json.find("\"total_micros\":2000"), std::string::npos);
  EXPECT_NE(json.find("\"quorum_wait\":1500"), std::string::npos);
  EXPECT_NE(json.find("\"stage_sum_micros\":1500"), std::string::npos);
}

TEST(SlowOpTest, EmptyRecorderExportsEmptyList) {
  SlowOpRecorder::StartRun(4);
  std::string json = SlowOpRecorder::ToJson();
  SlowOpRecorder::StopRun();
  EXPECT_TRUE(testing::JsonLint::Valid(json)) << json;
  EXPECT_NE(json.find("\"slow_ops\":[]"), std::string::npos);
}

// TSan target: concurrent ops completing breadcrumbs race their offers into
// the recorder while a reader snapshots; the admission fast path reads the
// threshold without the lock.
TEST(SlowOpTest, ConcurrentOffersKeepInvariants) {
  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerThread = 2'000;
  SlowOpRecorder::StartRun(16);

  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&go, t] {
      while (!go.load(std::memory_order_acquire)) {}
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        ScopedOpBreadcrumb breadcrumb("test.concurrent", t + 1, 1);
        AddStageMicros(Stage::kQuorumWait, i + 1);
        breadcrumb.Complete(i, t * kOpsPerThread + i + 1);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int round = 0; round < 5; ++round) {
    std::vector<SlowOpRecorder::Record> live =
        SlowOpRecorder::TakeSnapshot();
    EXPECT_LE(live.size(), 16u);
  }
  for (std::thread& w : workers) w.join();

  std::vector<SlowOpRecorder::Record> records =
      SlowOpRecorder::TakeSnapshot();
  SlowOpRecorder::StopRun();
  ASSERT_EQ(records.size(), 16u);
  // Sorted slowest-first and exactly the global top-16: the slowest thread
  // wrote totals (kThreads-1)*kOpsPerThread+1 .. kThreads*kOpsPerThread.
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].breadcrumb.total_micros,
              uint64_t{kThreads} * kOpsPerThread - i);
  }
}

}  // namespace
}  // namespace obs
}  // namespace iotdb
