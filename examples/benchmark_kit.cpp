// Runs the complete TPCx-IoT benchmark kit end-to-end against a real
// in-process gateway cluster: prerequisite checks, two iterations of
// warmup + measured workload with system cleanup, data checks, metric
// computation, and the executive summary / full disclosure report.
//
// Usage: ./build/examples/benchmark_kit [substations] [total_kvps] [nodes]
// Defaults are scaled down to finish in seconds; a publishable run would
// use 1800 s floors and a billion kvps.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cluster/cluster.h"
#include "iot/benchmark_driver.h"
#include "iot/checks.h"
#include "iot/pricing.h"
#include "iot/report.h"
#include "storage/env.h"

using namespace iotdb;  // NOLINT — example brevity

int main(int argc, char** argv) {
  int substations = argc > 1 ? atoi(argv[1]) : 2;
  uint64_t total_kvps = argc > 2 ? strtoull(argv[2], nullptr, 10) : 60000;
  int nodes = argc > 3 ? atoi(argv[3]) : 3;

  printf("TPCx-IoT reproduction kit: %d substations, %llu kvps, %d-node "
         "SUT\n\n",
         substations, static_cast<unsigned long long>(total_kvps), nodes);

  // The System Under Test.
  cluster::ClusterOptions cluster_options;
  cluster_options.num_nodes = nodes;
  cluster_options.replication_factor = 3;
  cluster_options.shard_key_fn = iot::TpcxIotShardKey;
  auto sut = cluster::Cluster::Start(cluster_options).MoveValueUnsafe();

  // Kit files under checksum: the workload parameter file. Build it, hash
  // it, then let the prerequisite file check verify it.
  auto kit_env = storage::NewMemEnv();
  std::string workload_file =
      "substations=" + std::to_string(substations) + "\n" +
      "total_kvps=" + std::to_string(total_kvps) + "\n" +
      "sensors_per_substation=200\nquery_windows_seconds=5\n";
  if (!kit_env->WriteStringToFile("/kit/workload.properties", workload_file)
           .ok()) {
    return 1;
  }
  std::string digest =
      iot::Md5OfFile(kit_env.get(), "/kit/workload.properties")
          .ValueOrDie();

  iot::BenchmarkConfig config;
  config.num_driver_instances = substations;
  config.total_kvps = total_kvps;
  config.batch_size = 500;
  config.min_run_seconds = 0;      // scaled-down reproduction floors
  config.min_per_sensor_rate = 0;  // (a compliant run uses 1800 s / 20)
  config.kit_files = {{"/kit/workload.properties", digest}};
  config.kit_env = kit_env.get();

  iot::BenchmarkDriver driver(config, sut.get());
  iot::BenchmarkResult result = driver.Run();
  if (!result.status.ok()) {
    fprintf(stderr, "benchmark failed: %s\n",
            result.status.ToString().c_str());
    return 1;
  }

  iot::PricedConfiguration pricing =
      iot::PricedConfiguration::ReferenceGatewayConfig(nodes);
  iot::SutDescription sut_description;
  sut_description.nodes = nodes;
  const storage::Options& store = cluster_options.storage_options;
  sut_description.tunables =
      "write_buffer_size=" + std::to_string(store.write_buffer_size >> 20) +
      "MB l0_stall_trigger=" + std::to_string(store.l0_stall_trigger) +
      " (engine defaults)";

  printf("%s\n",
         iot::FullDisclosureReport(result, pricing, sut_description)
             .c_str());
  return 0;
}
