#include "iot/checks.h"

#include <cstdio>

#include "common/md5.h"
#include "iot/kvp.h"
#include "iot/rules.h"

namespace iotdb {
namespace iot {

Result<std::string> Md5OfFile(storage::Env* env, const std::string& path) {
  std::string contents;
  IOTDB_RETURN_NOT_OK(env->ReadFileToString(path, &contents));
  return Md5::HexDigest(Slice(contents));
}

CheckResult FileCheck(storage::Env* env, const std::vector<KitFile>& files) {
  CheckResult result;
  result.name = "file check";
  for (const KitFile& file : files) {
    auto digest = Md5OfFile(env, file.path);
    if (!digest.ok()) {
      result.detail = file.path + ": " + digest.status().ToString();
      return result;
    }
    if (digest.ValueOrDie() != file.expected_md5_hex) {
      result.detail = file.path + ": checksum mismatch (got " +
                      digest.ValueOrDie() + ", want " +
                      file.expected_md5_hex + ")";
      return result;
    }
  }
  result.passed = true;
  result.detail = std::to_string(files.size()) + " kit files verified";
  return result;
}

CheckResult ReplicationCheck(cluster::Cluster* cluster, int probes) {
  CheckResult result;
  result.name = "data replication check";

  if (cluster->options().replication_factor < 3) {
    result.detail = "SUT configured with replication factor " +
                    std::to_string(cluster->options().replication_factor) +
                    " (three-way replication required)";
    return result;
  }

  // Probe: write marker rows and verify each replica node holds them.
  cluster::Client client(cluster);
  for (int i = 0; i < probes; ++i) {
    std::string key = "replcheck." + std::to_string(i) + ".probe";
    std::string value = "probe-value-" + std::to_string(i);
    Status s = client.Put(key, value);
    if (!s.ok()) {
      result.detail = "probe write failed: " + s.ToString();
      return result;
    }
    // The quorum coordinator acks before the slowest replica applies;
    // quiesce so the direct per-node reads below see all three copies.
    s = cluster->WaitReplicationIdle();
    if (!s.ok()) {
      result.detail = "replication did not quiesce: " + s.ToString();
      return result;
    }
    // Each replica holds the probe in its region of the probe's shard: the
    // leader's LSM, or a backup's installed files plus its log.
    const int shard = cluster->PrimaryNodeFor(key);
    int copies = 0;
    for (int node_id : cluster->ReplicaNodesFor(key)) {
      storage::KVStore* region = cluster->node(node_id)->region(shard);
      if (region == nullptr) continue;
      auto read = region->Get(storage::ReadOptions(), key);
      if (read.ok() && read.ValueOrDie() == value) copies++;
    }
    int required = cluster->effective_replication();
    if (copies < required) {
      result.detail = "probe " + std::to_string(i) + " found on " +
                      std::to_string(copies) + "/" +
                      std::to_string(required) + " replicas";
      return result;
    }
  }
  result.passed = true;
  char buf[128];
  snprintf(buf, sizeof(buf),
           "replication factor %d across %d nodes verified with %d probes",
           cluster->options().replication_factor, cluster->num_nodes(),
           probes);
  result.detail = buf;
  return result;
}

CheckResult DataCheck(const DataCheckInput& input) {
  CheckResult result;
  result.name = "data check";
  char buf[256];

  if (input.ingested_kvps != input.expected_kvps) {
    snprintf(buf, sizeof(buf),
             "ingested %llu kvps, expected %llu",
             static_cast<unsigned long long>(input.ingested_kvps),
             static_cast<unsigned long long>(input.expected_kvps));
    result.detail = buf;
    return result;
  }
  if (input.elapsed_seconds < input.min_run_seconds) {
    snprintf(buf, sizeof(buf),
             "workload execution took %.1fs, below the %.0fs floor",
             input.elapsed_seconds, input.min_run_seconds);
    result.detail = buf;
    return result;
  }
  double sensors = static_cast<double>(input.substations) *
                   Rules::kSensorsPerSubstation;
  double per_sensor = input.elapsed_seconds <= 0 || sensors <= 0
                          ? 0
                          : input.ingested_kvps /
                                input.elapsed_seconds / sensors;
  if (per_sensor < input.min_per_sensor_rate) {
    snprintf(buf, sizeof(buf),
             "per-sensor ingest rate %.1f kvps/s below the %.0f kvps/s floor",
             per_sensor, input.min_per_sensor_rate);
    result.detail = buf;
    return result;
  }
  if (input.enforce_query_rows &&
      input.avg_rows_per_query < input.min_rows_per_query) {
    snprintf(buf, sizeof(buf),
             "average %.1f kvps aggregated per query below the %.0f floor",
             input.avg_rows_per_query, input.min_rows_per_query);
    result.detail = buf;
    return result;
  }

  result.passed = true;
  snprintf(buf, sizeof(buf),
           "%llu kvps in %.1fs (%.1f kvps/s/sensor, %.1f rows/query)",
           static_cast<unsigned long long>(input.ingested_kvps),
           input.elapsed_seconds, per_sensor, input.avg_rows_per_query);
  result.detail = buf;
  return result;
}

}  // namespace iot
}  // namespace iotdb
