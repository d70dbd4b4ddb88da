// Failover drill: the paper models a gateway that is continuously
// available ("24h a day, 7 days a week", §I). This drill takes a node of a
// 4-node / 3-way-replicated gateway down mid-operation and shows that
//   - reads and scans keep being served from surviving replicas,
//   - the cluster reports the degraded state,
//   - after recovery, writes resume across the full cluster.
//
// Run: ./build/examples/failover_drill
#include <cstdio>

#include "cluster/cluster.h"
#include "iot/benchmark_driver.h"
#include "iot/kvp.h"

using namespace iotdb;  // NOLINT — example brevity

namespace {

bool IngestReadings(cluster::Client* client, const char* sensor,
                    uint64_t start_ts, int count) {
  std::vector<std::pair<std::string, std::string>> kvps;
  for (int i = 0; i < count; ++i) {
    iot::Reading reading;
    reading.substation_key = "drill_sub";
    reading.sensor_key = sensor;
    reading.timestamp_micros = start_ts + i * 1000;
    reading.value = 60.0 + i * 0.001;
    reading.unit = "hertz";
    iot::Kvp kvp = iot::KvpCodec::Encode(reading, i);
    kvps.emplace_back(std::move(kvp.key), std::move(kvp.value));
  }
  return client->PutBatch(kvps).ok();
}

}  // namespace

int main() {
  cluster::ClusterOptions options;
  options.num_nodes = 4;
  options.replication_factor = 3;
  options.shard_key_fn = iot::TpcxIotShardKey;
  auto gateway = cluster::Cluster::Start(options).MoveValueUnsafe();
  cluster::Client client(gateway.get());

  printf("Phase 1: normal operation — ingest 20k readings\n");
  if (!IngestReadings(&client, "pmu_freq_000", 1000000, 20000)) return 1;

  // A key we will keep probing throughout.
  std::string probe_key =
      iot::KvpCodec::EncodeKey("drill_sub", "pmu_freq_000", 1000000);
  int primary = gateway->PrimaryNodeFor(probe_key);
  printf("  probe key lives on primary node %d (replicas on 3 nodes)\n",
         primary);

  printf("\nPhase 2: node %d goes down\n", primary);
  gateway->node(primary)->SetDown(true);

  auto read = client.Get(probe_key);
  printf("  point read during outage: %s\n",
         read.ok() ? "SERVED from surviving replica" : "FAILED");
  std::vector<std::pair<std::string, std::string>> rows;
  std::string start =
      iot::KvpCodec::EncodeKey("drill_sub", "pmu_freq_000", 1000000);
  std::string end =
      iot::KvpCodec::EncodeKey("drill_sub", "pmu_freq_000", 2000000);
  std::string shard(
      iot::KvpCodec::ShardPrefixOf(Slice(start)).ToStringView());
  VectorRowSink sink(&rows);
  bool scan_ok = client.Scan(shard, start, end, 0, &sink).ok();
  printf("  window scan during outage: %s (%zu rows)\n",
         scan_ok ? "SERVED" : "FAILED", rows.size());

  // MultiGet keeps working too.
  std::vector<std::string> keys = {probe_key, "nonexistent.key.x"};
  std::vector<std::optional<std::string>> values;
  bool multi_ok = client.MultiGet(keys, &values).ok();
  printf("  multi-get during outage: %s (hit=%d, miss=%d)\n",
         multi_ok ? "SERVED" : "FAILED", values[0].has_value(),
         !values[1].has_value());

  printf("\nCluster state during the outage:\n%s",
         gateway->Describe().c_str());

  printf("\nPhase 3: node %d recovers — ingest resumes cluster-wide\n",
         primary);
  gateway->node(primary)->SetDown(false);
  if (!IngestReadings(&client, "pmu_freq_001", 5000000, 20000)) return 1;
  printf("  post-recovery imbalance CoV: %.3f\n",
         gateway->PrimaryLoadImbalance());

  bool all_served = read.ok() && scan_ok && multi_ok;
  printf("\nDrill %s.\n", all_served ? "PASSED" : "FAILED");
  return all_served ? 0 : 1;
}
