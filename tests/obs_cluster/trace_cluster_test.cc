// End-to-end causal tracing across the real stack: one replicated write
// must export as a single parent/child-linked flow spanning the driver
// thread, the group-commit leader, the channel mailbox, and the
// replica apply threads — and the per-op stage attribution must charge an
// injected slow-replica delay to the quorum-wait stage. Runs in the `obs`
// ctest label and again under full TSan via the obs_tsan_suite tier.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fault_channel.h"
#include "common/clock.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/slowops.h"
#include "obs/trace.h"

namespace iotdb {
namespace cluster {
namespace {

std::vector<std::pair<std::string, std::string>> Rows(int n) {
  std::vector<std::pair<std::string, std::string>> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) {
    rows.emplace_back("tk" + std::to_string(i), "v" + std::to_string(i));
  }
  return rows;
}

TEST(TraceClusterTest, ReplicatedWriteExportsOneLinkedCrossThreadFlow) {
  obs::SetEnabled(true);
  ClusterOptions options;
  options.num_nodes = 3;
  options.replication_factor = 3;
  auto cluster = Cluster::Start(options).MoveValueUnsafe();
  Client client(cluster.get());

  obs::TraceBuffer::StartTracing(8192);
  // The driver's op entry: mint the root context, install it, write.
  obs::TraceContext op_ctx = obs::TraceContext::Mint();
  uint64_t t0 = Clock::Real()->NowMicros();
  {
    obs::ScopedTraceContext ctx_scope(op_ctx);
    ASSERT_TRUE(client.PutBatch(Rows(10)).ok());
  }
  obs::TraceBuffer::Record("test.driver.op", t0,
                           Clock::Real()->NowMicros() - t0, op_ctx);
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());
  obs::TraceBuffer::StopTracing();

  std::map<uint64_t, obs::TraceEvent> by_span;
  std::map<std::string, int> name_counts;
  for (const obs::TraceEvent& event : obs::TraceBuffer::Snapshot()) {
    if (event.trace_id != op_ctx.trace_id) continue;
    by_span[event.span_id] = event;
    name_counts[event.name]++;
  }
  // The op's flow crossed every layer: driver anchor, client fan-out,
  // quorum ack, one apply per replica, and the group commit inside
  // the apply.
  EXPECT_EQ(name_counts["test.driver.op"], 1);
  EXPECT_GE(name_counts["cluster.fanout"], 1);
  EXPECT_GE(name_counts["cluster.quorum_ack"], 1);
  EXPECT_GE(name_counts["cluster.replica_apply"], 2);  // >= quorum acks
  EXPECT_GE(name_counts["storage.wal.group_commit"] +
                name_counts["storage.group_commit.join"],
            1);

  // Every replica apply must chain back to the driver's root span through
  // recorded parents: apply -> quorum_ack -> fanout -> driver op.
  int applies_checked = 0;
  for (const auto& [span_id, event] : by_span) {
    if (std::string(event.name) != "cluster.replica_apply") continue;
    applies_checked++;
    std::vector<std::string> chain;
    std::map<uint64_t, bool> visited;
    obs::TraceEvent cur = event;
    while (cur.parent_id != 0 && !visited[cur.parent_id]) {
      visited[cur.parent_id] = true;
      auto it = by_span.find(cur.parent_id);
      ASSERT_NE(it, by_span.end())
          << cur.name << " has unrecorded parent " << cur.parent_id;
      cur = it->second;
      chain.push_back(cur.name);
    }
    ASSERT_GE(chain.size(), 3u);
    EXPECT_EQ(chain[0], "cluster.quorum_ack");
    EXPECT_EQ(chain[1], "cluster.fanout");
    EXPECT_EQ(chain.back(), "test.driver.op");
    // The hop crossed the channel: the apply ran on a mailbox thread, not
    // the driver thread that recorded the root.
    EXPECT_NE(event.tid, by_span.at(op_ctx.span_id).tid);
  }
  EXPECT_GE(applies_checked, 2);

  // The group-commit span links into an apply (the replica thread runs the
  // storage write path under the apply's context).
  int commits_linked = 0;
  for (const auto& [span_id, event] : by_span) {
    std::string name = event.name;
    if (name != "storage.wal.group_commit" &&
        name != "storage.group_commit.join") {
      continue;
    }
    auto it = by_span.find(event.parent_id);
    ASSERT_NE(it, by_span.end());
    EXPECT_STREQ(it->second.name, "cluster.replica_apply");
    commits_linked++;
  }
  EXPECT_GE(commits_linked, 1);
}

TEST(TraceClusterTest, QuorumWaitStageAbsorbsSlowReplicaDelay) {
  constexpr uint64_t kDelayMicros = 50'000;
  obs::SetEnabled(true);
  ClusterOptions options;
  options.num_nodes = 3;
  options.replication_factor = 3;
  options.enable_net_fault_injection = true;
  options.net_fault_seed = 7;
  auto cluster = Cluster::Start(options).MoveValueUnsafe();
  FaultChannel* net = cluster->net_fault_channel();
  ASSERT_NE(net, nullptr);
  ASSERT_EQ(cluster->write_quorum(), 2);
  // Two of the three replicas are slow, so the second (quorum-deciding)
  // ack always rides a delayed delivery.
  net->SetEndpointDelay(1, kDelayMicros, kDelayMicros);
  net->SetEndpointDelay(2, kDelayMicros, kDelayMicros);

  uint64_t quorum_hist_before =
      obs::MetricsRegistry::Global()
          .GetHistogram("attrib.quorum_wait_micros")
          ->TakeSnapshot()
          .count;
  obs::SlowOpRecorder::StartRun(8);
  Client client(cluster.get());
  {
    obs::ScopedOpBreadcrumb breadcrumb("test.driver.op", 1, 10);
    ASSERT_TRUE(breadcrumb.active());
    uint64_t t0 = Clock::Real()->NowMicros();
    ASSERT_TRUE(client.PutBatch(Rows(10)).ok());
    breadcrumb.Complete(t0, Clock::Real()->NowMicros() - t0);
  }
  std::vector<obs::SlowOpRecorder::Record> records =
      obs::SlowOpRecorder::TakeSnapshot();
  obs::SlowOpRecorder::StopRun();
  net->HealAll();
  ASSERT_TRUE(cluster->WaitReplicationIdle().ok());

  // The recorder also kept the per-replica apply breadcrumbs; pick the
  // driver-level op.
  const obs::OpBreadcrumb* driver_bc = nullptr;
  for (const auto& record : records) {
    if (std::string(record.breadcrumb.op) == "test.driver.op") {
      driver_bc = &record.breadcrumb;
      break;
    }
  }
  ASSERT_NE(driver_bc, nullptr);
  const obs::OpBreadcrumb& bc = *driver_bc;
  const uint64_t quorum_wait =
      bc.stage_micros[static_cast<int>(obs::Stage::kQuorumWait)];
  // The injected delay lands in the quorum-wait stage, and the stage
  // breakdown stays consistent with the op's end-to-end latency.
  EXPECT_GE(quorum_wait, kDelayMicros * 9 / 10);
  EXPECT_GE(bc.total_micros, quorum_wait);
  EXPECT_GE(quorum_wait * 2, bc.total_micros);  // it dominates the op
  EXPECT_LE(bc.StageSum(), bc.total_micros);

  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetHistogram("attrib.quorum_wait_micros")
                ->TakeSnapshot()
                .count,
            quorum_hist_before + 1);
}

}  // namespace
}  // namespace cluster
}  // namespace iotdb
