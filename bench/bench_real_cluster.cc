// Real-execution companion to the model-based figure benches: runs the
// actual TPCx-IoT kit (real drivers, real queries) against the real
// in-process gateway cluster (real LSM stores, real replication) at 2, 4,
// and 8 nodes on THIS host. Numbers depend on the build machine — the
// point is that the entire code path the paper describes executes natively
// end to end, not just in the calibrated model.
//
//   --kvps=N            total kvps per run (default 40000)
//   --subs=N            substations (default 2)
//   --metrics-out=FILE  obs registry snapshot (JSON) across all runs
//   --timeline-out=FILE per-second registry-delta timeline (JSON) across
//                       all runs
//   --trace-out=FILE    span trace (Chrome trace_event JSON, open in
//                       Perfetto) across all runs
//   --scrub             enable background scrubbing on every store and run a
//                       full integrity verification after each cluster's runs
//   --net-faults        route replication through a seeded FaultChannel and
//                       slow one replica by 50 ms per message: writes keep
//                       meeting quorum on the fast replicas while the
//                       straggler's rows arrive as hinted handoff; prints
//                       quorum-met vs hinted so the graceful-degradation
//                       path is visible (cross-check the FDR Availability
//                       section)
//   --slowops-out=FILE  slow-op flight recorder of the last measured
//                       execution (JSON, per-stage breakdowns)
//   --report-dir=DIR    write the FDR artefacts (executive summary, full
//                       disclosure report, metrics/timeline/slowops JSON)
//                       per cluster size into DIR/n<nodes>/; the FDR gains
//                       the "Latency attribution" section
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "iot/benchmark_driver.h"
#include "iot/report.h"
#include "obs/metrics.h"
#include "storage/env.h"

using namespace iotdb;  // NOLINT — bench brevity

int main(int argc, char** argv) {
  uint64_t total_kvps = 40000;
  int substations = 2;
  bool scrub = false;
  bool net_faults = false;
  std::string report_dir;
  // Shared flags (--metrics-out/--timeline-out/--trace-out) come from
  // benchutil; ParseArgs ignores this bench's own flags and vice versa.
  benchutil::Args args = benchutil::ParseArgs(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], "--kvps=", 7) == 0) {
      total_kvps = strtoull(argv[i] + 7, nullptr, 10);
    } else if (strncmp(argv[i], "--subs=", 7) == 0) {
      substations = atoi(argv[i] + 7);
    } else if (strcmp(argv[i], "--scrub") == 0) {
      scrub = true;
    } else if (strcmp(argv[i], "--net-faults") == 0) {
      net_faults = true;
    } else if (strncmp(argv[i], "--report-dir=", 13) == 0) {
      report_dir = argv[i] + 13;
    }
  }
  benchutil::StartCollection(args);

  printf("============================================================\n");
  printf("Real-execution kit run (in-process cluster on this host)\n");
  printf("%d substations x %llu kvps total, warmup + measured, "
         "2 iterations\n",
         substations, static_cast<unsigned long long>(total_kvps));
  printf("============================================================\n");
  printf("%8s %14s %14s %14s %12s\n", "nodes", "IoTps", "measured[s]",
         "queries", "q-avg[ms]");

  uint64_t total_ingested = 0;  // across every warmup + measured run
  for (int nodes : {2, 4, 8}) {
    cluster::ClusterOptions cluster_options;
    cluster_options.num_nodes = nodes;
    cluster_options.replication_factor = 3;
    cluster_options.shard_key_fn = iot::TpcxIotShardKey;
    cluster_options.storage_options.background_scrub = scrub;
    if (net_faults) {
      cluster_options.enable_net_fault_injection = true;
      cluster_options.net_fault_seed = 42;
      // Keep the straggler from stalling ingest: hint it out fast.
      cluster_options.straggler_timeout_micros = 20'000;
    }
    auto sut_result = cluster::Cluster::Start(cluster_options);
    if (!sut_result.ok()) {
      fprintf(stderr, "cluster start failed: %s\n",
              sut_result.status().ToString().c_str());
      return 1;
    }
    auto sut = std::move(sut_result).MoveValueUnsafe();

    iot::BenchmarkConfig config;
    config.num_driver_instances = substations;
    config.total_kvps = total_kvps;
    config.batch_size = 500;
    config.min_run_seconds = 0;      // host-scale run
    config.min_per_sensor_rate = 0;
    if (net_faults) {
      // 50 ms slow replica preset: every message into the last node is
      // delayed, so quorum is carried by the other replicas and the
      // straggler converges via hints.
      config.fault_net_delay_node = nodes - 1;
      config.fault_net_delay_ms = 50;
    }
    iot::BenchmarkDriver driver(config, sut.get());
    iot::BenchmarkResult result = driver.Run();
    if (!result.status.ok()) {
      fprintf(stderr, "run failed: %s\n", result.status.ToString().c_str());
      return 1;
    }
    for (const auto& iter : result.iterations) {
      total_ingested += iter.warmup.metrics.kvps_ingested +
                        iter.measured.metrics.kvps_ingested;
    }
    const auto& measured =
        result.iterations[result.performance_run].measured;
    Histogram queries = measured.MergedQueryLatency();
    printf("%8d %14.0f %14.2f %14llu %12.2f\n", nodes, result.IoTps(),
           measured.metrics.ElapsedSeconds(),
           static_cast<unsigned long long>(queries.count()),
           queries.Mean() / 1000.0);
    // Stage-attribution reconciliation: on this replicated path the op's
    // critical path is the cluster stage group, so its per-stage p99 sum
    // should land near the measured insert p99 (the FDR "Latency
    // attribution" section prints the full table and the PASS/WARN gate).
    {
      const obs::MetricsSnapshot& delta = measured.obs_delta;
      auto p99 = [&delta](const char* name) -> double {
        auto it = delta.histograms.find(name);
        return it == delta.histograms.end() || it->second.count == 0
                   ? 0.0
                   : it->second.Percentile(99);
      };
      double stage_sum = p99("attrib.fanout_send_micros") +
                         p99("attrib.quorum_wait_micros") +
                         p99("attrib.retry_backoff_micros");
      double op_p99 = p99("driver.insert_batch_micros");
      if (stage_sum > 0.0 && op_p99 > 0.0) {
        printf("%8s attribution: cluster-stage p99 sum %.0f us vs insert "
               "p99 %.0f us (%.0f%%)\n",
               "", stage_sum, op_p99, 100.0 * stage_sum / op_p99);
      }
    }
    if (!report_dir.empty()) {
      iot::SutDescription sut_desc;
      sut_desc.nodes = nodes;
      iot::PricedConfiguration pricing =
          iot::PricedConfiguration::ReferenceGatewayConfig(nodes);
      std::string dir = report_dir + "/n" + std::to_string(nodes);
      Status s = iot::WriteReportFiles(storage::Env::Posix(), dir, result,
                                       pricing, sut_desc);
      if (s.ok()) {
        printf("%8s FDR artefacts written to %s\n", "", dir.c_str());
      } else {
        fprintf(stderr, "report write failed: %s\n", s.ToString().c_str());
      }
    }
    if (net_faults) {
      const cluster::AvailabilityStats& avail = measured.availability;
      const cluster::NetFaultCounters& net = measured.net_faults;
      printf("%8s net-faults: %llu writes attempted, %llu quorum-met "
             "(%.2f%%), %llu unavailable; %llu straggler-hinted kvps, "
             "%llu messages delayed\n",
             "", static_cast<unsigned long long>(avail.writes_attempted),
             static_cast<unsigned long long>(avail.writes_quorum_met),
             avail.writes_attempted == 0
                 ? 0.0
                 : 100.0 * static_cast<double>(avail.writes_quorum_met) /
                       static_cast<double>(avail.writes_attempted),
             static_cast<unsigned long long>(avail.writes_unavailable),
             static_cast<unsigned long long>(avail.straggler_hinted_kvps),
             static_cast<unsigned long long>(net.delayed));
    }
    if (scrub) {
      // The driver purges the SUT after its runs, so report what the
      // background scrubber covered while the workload was live.
      obs::MetricsSnapshot snap =
          obs::MetricsRegistry::Global().TakeSnapshot();
      auto counter = [&snap](const char* name) -> unsigned long long {
        auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0 : it->second;
      };
      printf("%8s scrub: %llu files / %llu bytes checked in background, "
             "%llu corrupt, %llu quarantined\n",
             "", counter("storage.scrub.files_checked"),
             counter("storage.scrub.bytes_checked"),
             counter("storage.scrub.corruption_detected"),
             counter("storage.quarantine.files"));
    }
  }
  printf("\nNote: single-host numbers; replication work scales with "
         "min(3, nodes), so more nodes = more total writes on one "
         "machine.\n");
  benchutil::MaybeWriteMetrics(args);
  benchutil::MaybeWriteTimeline(args, total_ingested);
  benchutil::MaybeWriteTrace(args);
  benchutil::MaybeWriteSlowOps(args);
  return 0;
}
