// Regression tests for hint-queue-depth gauge hygiene across the node
// lifecycle. Gauges are levels, not deltas: the timeline sampler reports
// whatever the gauge holds at each interval end, so any path that changes
// the real queue depth without updating the gauge (crash, restart,
// destruction) leaks a stale level into every later snapshot.
#include <gtest/gtest.h>

#include <string>

#include "cluster/cluster.h"
#include "obs/metrics.h"

namespace iotdb {
namespace cluster {
namespace {

ClusterOptions SmallClusterOptions() {
  ClusterOptions options;
  options.num_nodes = 3;
  options.replication_factor = 3;
  return options;
}

std::string Key(int i) { return "key" + std::to_string(i); }

obs::Gauge* TotalDepthGauge() {
  return obs::MetricsRegistry::Global().GetGauge(
      "cluster.hints.queue_depth");
}

obs::Gauge* NodeDepthGauge(int id) {
  return obs::MetricsRegistry::Global().GetGauge(
      "cluster.node" + std::to_string(id) + ".hint_queue_depth");
}

TEST(ObsGaugeLifecycleTest, DepthTracksBufferingAndReplay) {
  auto cluster = Cluster::Start(SmallClusterOptions()).MoveValueUnsafe();
  Client client(cluster.get());

  cluster->node(1)->SetDown(true);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client.Put(Key(i), "v").ok());
  }
  // rf == nodes, so every write hints for node 1 while it is down.
  EXPECT_EQ(TotalDepthGauge()->Value(), 40);
  EXPECT_EQ(NodeDepthGauge(1)->Value(), 40);
  EXPECT_EQ(NodeDepthGauge(0)->Value(), 0);

  ASSERT_TRUE(cluster->RestartNode(1).ok());
  EXPECT_FALSE(cluster->node(1)->is_down());
  EXPECT_EQ(TotalDepthGauge()->Value(), 0);
  EXPECT_EQ(NodeDepthGauge(1)->Value(), 0);
}

TEST(ObsGaugeLifecycleTest, CrashDropsBufferedHintsAndResetsDepth) {
  auto cluster = Cluster::Start(SmallClusterOptions()).MoveValueUnsafe();
  Client client(cluster.get());

  cluster->node(1)->SetDown(true);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(client.Put(Key(i), "v").ok());
  }
  ASSERT_EQ(NodeDepthGauge(1)->Value(), 25);

  // The crash makes those hints dead weight (rejoin re-copies anyway);
  // the gauge must drop with them instead of haunting the timeline for as
  // long as the node stays down.
  ASSERT_TRUE(cluster->CrashNode(1).ok());
  EXPECT_EQ(TotalDepthGauge()->Value(), 0);
  EXPECT_EQ(NodeDepthGauge(1)->Value(), 0);

  // Writes while crashed count as skipped/hinted in the stats but must not
  // re-grow the queue (the buffer is due for a full re-copy).
  for (int i = 25; i < 50; ++i) {
    ASSERT_TRUE(client.Put(Key(i), "v").ok());
  }
  EXPECT_EQ(TotalDepthGauge()->Value(), 0);
  EXPECT_GT(cluster->GetFaultRecoveryStats().hinted_kvps, 0u);

  ASSERT_TRUE(cluster->RestartNode(1).ok());
  EXPECT_EQ(TotalDepthGauge()->Value(), 0);
  // The region copies converged: the restarted node holds the crash-era writes.
  auto r = cluster->node(1)->Get(cluster->PrimaryNodeFor(Key(30)), Key(30));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(ObsGaugeLifecycleTest, DestructorZeroesGaugesForTheNextCluster) {
  {
    auto cluster = Cluster::Start(SmallClusterOptions()).MoveValueUnsafe();
    Client client(cluster.get());
    cluster->node(0)->SetDown(true);
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(client.Put(Key(i), "v").ok());
    }
    ASSERT_GT(TotalDepthGauge()->Value(), 0);
    ASSERT_GT(NodeDepthGauge(0)->Value(), 0);
    // Cluster torn down with hints still buffered.
  }
  // The gauges are process-global; a bench running several clusters in one
  // process must not see the previous cluster's ghost depth.
  EXPECT_EQ(TotalDepthGauge()->Value(), 0);
  EXPECT_EQ(NodeDepthGauge(0)->Value(), 0);
}

}  // namespace
}  // namespace cluster
}  // namespace iotdb
