// DB binding tests.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "ycsb/bindings.h"

namespace iotdb {
namespace ycsb {
namespace {

TEST(ClusterDBTest, RoundTripsThroughCluster) {
  cluster::ClusterOptions options;
  options.num_nodes = 3;
  auto cluster = cluster::Cluster::Start(options).MoveValueUnsafe();
  ClusterDB db(cluster.get());
  ASSERT_TRUE(db.Insert("key", "value").ok());
  EXPECT_EQ(db.Read("key").ValueOrDie(), "value");
  // The insert acked at quorum, and a scan reads the first live replica,
  // which may still be applying it.
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db.Scan("key", "key", "kez", 0, &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
}

}  // namespace
}  // namespace ycsb
}  // namespace iotdb
