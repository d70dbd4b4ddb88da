// CoreWorkload, Measurements, client, and DB binding tests.
#include <gtest/gtest.h>

#include <memory>

#include "cluster/cluster.h"
#include "common/properties.h"
#include "storage/env.h"
#include "storage/kvstore.h"
#include "ycsb/bindings.h"
#include "ycsb/client.h"
#include "ycsb/core_workload.h"
#include "ycsb/db.h"
#include "ycsb/measurements.h"

namespace iotdb {
namespace ycsb {
namespace {

TEST(MeasurementsTest, RecordsPerOpHistograms) {
  Measurements m;
  m.Record("READ", 100);
  m.Record("READ", 200);
  m.Record("INSERT", 50);
  m.RecordFailure("READ");

  obs::HistogramSnapshot reads = m.GetHistogram("READ");
  EXPECT_EQ(reads.count, 2u);
  EXPECT_EQ(reads.min, 100u);
  EXPECT_EQ(reads.max, 200u);
  EXPECT_EQ(m.GetFailures("READ"), 1u);
  EXPECT_EQ(m.GetFailures("INSERT"), 0u);
  EXPECT_EQ(m.GetHistogram("UNKNOWN").count, 0u);
}

TEST(MeasurementsTest, MergeAndReport) {
  Measurements a, b;
  a.Record("READ", 10);
  b.Record("READ", 30);
  b.Record("SCAN", 99);
  a.Merge(b);
  EXPECT_EQ(a.GetHistogram("READ").count, 2u);
  EXPECT_EQ(a.GetHistogram("SCAN").count, 1u);
  std::string report = a.Report();
  EXPECT_NE(report.find("READ"), std::string::npos);
  EXPECT_NE(report.find("SCAN"), std::string::npos);
  a.Reset();
  EXPECT_EQ(a.GetHistogram("READ").count, 0u);
}

TEST(NullDBTest, SwallowsEverything) {
  NullDB db;
  EXPECT_TRUE(db.Insert("k", "v").ok());
  EXPECT_TRUE(db.InsertBatch({{"a", "1"}, {"b", "2"}}).ok());
  EXPECT_TRUE(db.Read("k").status().IsNotFound());
  std::vector<std::pair<std::string, std::string>> rows;
  EXPECT_TRUE(db.Scan("s", "a", "z", 0, &rows).ok());
  EXPECT_TRUE(rows.empty());
}

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = storage::NewMemEnv();
    storage::Options options;
    options.env = env_.get();
    store_ = storage::KVStore::Open(options, "/ycsb").MoveValueUnsafe();
    db_ = std::make_unique<KVStoreDB>(store_.get());
  }

  std::unique_ptr<CoreWorkload> MakeWorkload(const std::string& text) {
    Properties props;
    EXPECT_TRUE(props.ParseText(text).ok());
    auto result = CoreWorkload::Create(props);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).MoveValueUnsafe();
  }

  std::unique_ptr<storage::Env> env_;
  std::unique_ptr<storage::KVStore> store_;
  std::unique_ptr<DB> db_;
};

TEST_F(WorkloadTest, LoadPhaseInsertsRecordCount) {
  auto workload = MakeWorkload("recordcount=500\noperationcount=0\n");
  Measurements m;
  ClientOptions options;
  ClientResult result = RunLoadPhase(options, db_.get(), workload.get(), &m);
  EXPECT_EQ(result.operations, 500u);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(m.GetHistogram("INSERT").count, 500u);
  EXPECT_EQ(store_->CountKeysSlow(), 500u);
}

TEST_F(WorkloadTest, TransactionsFollowMix) {
  auto workload = MakeWorkload(
      "recordcount=200\noperationcount=1000\n"
      "readproportion=0.5\nupdateproportion=0.3\nscanproportion=0.2\n"
      "requestdistribution=uniform\n");
  Measurements m;
  ClientOptions options;
  RunLoadPhase(options, db_.get(), workload.get(), &m);
  m.Reset();
  ClientResult result =
      RunTransactionPhase(options, db_.get(), workload.get(), &m);
  EXPECT_EQ(result.operations, 1000u);
  EXPECT_EQ(result.failures, 0u);
  auto snapshot = m.Snapshot();
  uint64_t total = snapshot["READ"].count + snapshot["UPDATE"].count +
                   snapshot["SCAN"].count;
  EXPECT_EQ(total, 1000u);
  EXPECT_NEAR(snapshot["READ"].count, 500, 80);
  EXPECT_NEAR(snapshot["UPDATE"].count, 300, 70);
  EXPECT_NEAR(snapshot["SCAN"].count, 200, 60);
}

TEST_F(WorkloadTest, MultiThreadedClientCompletes) {
  auto workload = MakeWorkload(
      "recordcount=300\noperationcount=600\nreadproportion=1.0\n"
      "updateproportion=0\n");
  Measurements m;
  ClientOptions options;
  options.threads = 4;
  RunLoadPhase(options, db_.get(), workload.get(), &m);
  EXPECT_EQ(store_->CountKeysSlow(), 300u);
  ClientResult result =
      RunTransactionPhase(options, db_.get(), workload.get(), &m);
  EXPECT_EQ(result.operations, 600u);
  EXPECT_EQ(result.failures, 0u);
}

TEST_F(WorkloadTest, TargetThroughputThrottles) {
  auto workload = MakeWorkload(
      "recordcount=300\noperationcount=0\n");
  Measurements m;
  ClientOptions options;
  // Burst is ~100 permits, so ~200 inserts are paced at 1 ms each.
  options.target_ops_per_sec = 1000;
  ClientResult result = RunLoadPhase(options, db_.get(), workload.get(), &m);
  EXPECT_GE(result.elapsed_micros, 150000u);
}

TEST_F(WorkloadTest, InvalidPropertiesRejected) {
  Properties props;
  ASSERT_TRUE(props.ParseText("recordcount=0\n").ok());
  EXPECT_FALSE(CoreWorkload::Create(props).ok());

  Properties bad_dist;
  ASSERT_TRUE(bad_dist.ParseText("requestdistribution=bogus\n").ok());
  EXPECT_FALSE(CoreWorkload::Create(bad_dist).ok());
}

TEST_F(WorkloadTest, KeyNamesAreStable) {
  EXPECT_EQ(CoreWorkload::BuildKeyName(1), CoreWorkload::BuildKeyName(1));
  EXPECT_NE(CoreWorkload::BuildKeyName(1), CoreWorkload::BuildKeyName(2));
  EXPECT_EQ(CoreWorkload::BuildKeyName(7).substr(0, 4), "user");
}

TEST(ClusterDBTest, RoundTripsThroughCluster) {
  cluster::ClusterOptions options;
  options.num_nodes = 3;
  auto cluster = cluster::Cluster::Start(options).MoveValueUnsafe();
  ClusterDB db(cluster.get());
  ASSERT_TRUE(db.Insert("key", "value").ok());
  EXPECT_EQ(db.Read("key").ValueOrDie(), "value");
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db.Scan("key", "key", "kez", 0, &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
}

}  // namespace
}  // namespace ycsb
}  // namespace iotdb
