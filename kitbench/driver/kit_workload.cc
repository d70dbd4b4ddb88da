// kit_ingest: the TPCx-IoT kit as shipped, BenchmarkDriver::Run() against a
// 4-node RF=3 in-process cluster — warmup plus measured execution, twice,
// with the prerequisite and data checks. Every layer is on the path,
// flush and compaction stalls included.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "driver/workloads.h"
#include "iot/benchmark_driver.h"
#include "iot/checks.h"
#include "lib/spans.h"
#include "obs/trace.h"
#include "storage/env.h"

namespace kitbench {

namespace {

using iotdb::cluster::Cluster;
using iotdb::iot::BenchmarkResult;

constexpr int kNodes = 4;
constexpr int kSubstations = 2;
constexpr size_t kBatch = 500;
// Sized below the ingest cliff, where compaction debt and straggler hints
// pile up until Runs fail (see NOTES.md, "Sizing").
constexpr uint64_t kKvpsPerExecution = 100'000;
// A Run at this size takes about 15 s on a 4-core host; --seconds buys
// whole Runs at that rate, so every run measures the same work.
constexpr double kNominalRunSeconds = 15;
constexpr int kSetupReps = 7;  // before the first Run and after each Run

/// The system under test plus the kit files the prerequisite check hashes.
struct KitSut {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<iotdb::storage::Env> kit_env;
  iotdb::iot::BenchmarkConfig config;
};

std::unique_ptr<KitSut> SetUp(uint64_t seed) {
  auto sut = std::make_unique<KitSut>();
  iotdb::cluster::ClusterOptions options;
  options.num_nodes = kNodes;
  options.replication_factor = 3;
  options.shard_key_fn = iotdb::iot::TpcxIotShardKey;
  auto started = Cluster::Start(options);
  if (!started.ok()) {
    fprintf(stderr, "cluster start failed: %s\n",
            started.status().ToString().c_str());
    return nullptr;
  }
  sut->cluster = std::move(started).MoveValueUnsafe();

  sut->kit_env = iotdb::storage::NewMemEnv();
  const std::string path = "/kit/workload.properties";
  const std::string workload =
      "substations=" + std::to_string(kSubstations) +
      "\ntotal_kvps=" + std::to_string(kKvpsPerExecution) +
      "\nsensors_per_substation=200\nquery_windows_seconds=5\n";
  if (!sut->kit_env->WriteStringToFile(path, workload).ok()) return nullptr;
  auto digest = iotdb::iot::Md5OfFile(sut->kit_env.get(), path);
  if (!digest.ok()) return nullptr;

  iotdb::iot::BenchmarkConfig& config = sut->config;
  config.num_driver_instances = kSubstations;
  config.total_kvps = kKvpsPerExecution;
  config.batch_size = kBatch;
  config.seed = seed;
  config.min_run_seconds = 0;  // host-scale run: no 1800 s floor
  config.min_per_sensor_rate = 0;
  config.kit_files = {{path, digest.ValueOrDie()}};
  config.kit_env = sut->kit_env.get();
  return sut;
}

struct KitRun {
  BenchmarkResult result;
  double cpu_s = 0;
  double wall_s = 0;
  uint64_t all_kvps = 0;       // warmups included
  uint64_t measured_kvps = 0;  // both measured executions
  double measured_s = 0;
  iotdb::obs::MetricsSnapshot measured_delta;
};

KitRun RunOnce(KitSut* sut, OpCount* ops) {
  KitRun run;
  iotdb::iot::BenchmarkDriver driver(sut->config, sut->cluster.get());
  const double cpu0 = CpuSeconds();
  const uint64_t t0 = NowNanos();
  run.result = driver.Run();
  run.wall_s = (NowNanos() - t0) / 1e9;
  run.cpu_s = CpuSeconds() - cpu0;

  const BenchmarkResult& r = run.result;
  ops->Record(r.status.ok() && r.valid);
  ops->Record(r.replication_check.passed);
  for (const auto& iter : r.iterations) {
    ops->Record(iter.data_check.passed);
    run.all_kvps += iter.warmup.metrics.kvps_ingested +
                    iter.measured.metrics.kvps_ingested;
    run.measured_kvps += iter.measured.metrics.kvps_ingested;
    run.measured_s += iter.measured.metrics.ElapsedSeconds();
    run.measured_delta =
        MergeSnapshots(run.measured_delta, iter.measured.obs_delta);
  }
  if (!r.status.ok() || !r.valid) {
    fprintf(stderr, "kit run failed: %s %s\n", r.status.ToString().c_str(),
            r.invalid_reason.c_str());
  }
  return run;
}

/// Acked kvps of the measured executions over the sum of their windows.
double Iotps(const std::vector<const KitRun*>& runs) {
  uint64_t kvps = 0;
  double seconds = 0;
  for (const KitRun* run : runs) {
    kvps += run->measured_kvps;
    seconds += run->measured_s;
  }
  return Ratio(static_cast<double>(kvps), seconds);
}

void AddLayerMetrics(const KitRun& run, double trace_overhead_pct,
                     uint64_t dropped_spans, WorkloadOutput* out) {
  const iotdb::obs::MetricsSnapshot& d = run.measured_delta;
  const double batches =
      static_cast<double>(HistCount(d, "driver.insert_batch_micros"));
  const double ingest_kvps =
      static_cast<double>(CounterOf(d, "driver.ingest.kvps"));
  const double user_bytes =
      static_cast<double>(CounterOf(d, "cluster.ops.bytes_written"));
  const double written =
      static_cast<double>(CounterOf(d, "storage.memtable.bytes_flushed") +
                          CounterOf(d, "storage.compaction.bytes_written") +
                          CounterOf(d, "storage.vlog.appended_bytes"));

  out->Add("iot.insert_ms_p90",
           HistPercentile(d, "driver.insert_batch_micros", 90) / 1e3, "ms");
  out->Add("iot.rows_per_query",
           Ratio(static_cast<double>(CounterOf(d, "driver.query.rows")),
                 static_cast<double>(CounterOf(d, "driver.query.count"))),
           "rows");
  out->Add("iot.kit_query_ms_p50",
           HistPercentile(d, "driver.query_micros", 50) / 1e3, "ms");
  out->Add("cluster.fanout_us_p50",
           HistPercentile(d, "attrib.fanout_send_micros", 50), "us");
  out->Add("cluster.quorum_wait_us_p50",
           HistPercentile(d, "attrib.quorum_wait_micros", 50), "us");
  out->Add("cluster.quorum_wait_us_p90",
           HistPercentile(d, "attrib.quorum_wait_micros", 90), "us");
  out->Add("cluster.replica_writes_per_kvp",
           Ratio(static_cast<double>(CounterOf(d, "cluster.ops.writes")),
                 ingest_kvps),
           "count");
  out->Add("cluster.channel_msgs_per_batch",
           Ratio(static_cast<double>(CounterOf(d, "cluster.channel.sent")),
                 batches),
           "count");
  out->Add("cluster.hinted_kvps_frac",
           Ratio(static_cast<double>(
                     CounterOf(d, "cluster.hints.recorded_kvps")),
                 3 * ingest_kvps),
           "ratio");
  out->Add("cluster.unavailable_retries",
           static_cast<double>(
               CounterOf(d, "driver.ingest.unavailable_retries")),
           "count");
  out->Add("storage.stall_s",
           CounterOf(d, "storage.write.stall_micros") / 1e6, "s");
  out->Add("storage.write_amp", Ratio(written, user_bytes), "ratio");
  out->Add("storage.compaction_read_per_user_byte",
           Ratio(static_cast<double>(
                     CounterOf(d, "storage.compaction.bytes_read")),
                 user_bytes),
           "ratio");
  out->Add("storage.wal_group_commit_kvps_p50",
           HistPercentile(d, "storage.wal.group_commit_kvps", 50), "kvps");
  out->Add("storage.wal_append_us_p50",
           HistPercentile(d, "storage.wal.append_micros", 50), "us");
  out->Add("storage.commit_wait_us_p50",
           HistPercentile(d, "attrib.commit_wait_micros", 50), "us");
  auto imbalance = d.gauges.find("storage.shard.imbalance");
  out->Add("storage.shard_imbalance_pct",
           imbalance == d.gauges.end()
               ? 0.0
               : static_cast<double>(imbalance->second),
           "%");
  out->Add("obs.trace_overhead_pct", trace_overhead_pct, "%");
  out->Add("obs.dropped_spans", static_cast<double>(dropped_spans), "count");
}

}  // namespace

WorkloadOutput RunKitIngest(const RunArgs& args) {
  WorkloadOutput out;
  std::unique_ptr<KitSut> sut;
  std::unique_ptr<KitSut> spare;  // set-up samples taken between Runs
  std::vector<double> setup_samples;
  auto make = [&args]() { return SetUp(args.seed); };
  auto sample_setup = [&]() {
    const bool ok = SampleSetUp(kSetupReps, &spare, &setup_samples, make);
    spare.reset();
    if (!ok) out.ops.Record(false);
    return ok;
  };
  if (!SampleSetUp(kSetupReps, &sut, &setup_samples, make)) {
    out.ops.Record(false);
    return out;
  }
  iotdb::storage::KVStore* store = sut->cluster->node(0)->store();
  out.Note("cluster", std::to_string(kNodes) + " nodes, RF=3, " +
                          std::to_string(kSubstations) +
                          " substations, batch " + std::to_string(kBatch));
  out.Note("kvps_per_execution", std::to_string(kKvpsPerExecution));
  out.Note("store.num_write_shards",
           std::to_string(store->num_write_shards()));
  out.Note("store.value_separation",
           sut->cluster->options().storage_options.value_separation ? "on"
                                                                    : "off");

  std::vector<KitRun> runs;
  if (!args.trace) {
    // A Run is the kit's unit of work; both its measured executions count.
    const long count = std::max(1L, std::lround(args.seconds /
                                                kNominalRunSeconds));
    for (long i = 0; i < count; ++i) {
      runs.push_back(RunOnce(sut.get(), &out.ops));
      if (!sample_setup()) return out;
    }
  } else {
    // One untraced Run for the headline, one traced Run for the layers.
    runs.push_back(RunOnce(sut.get(), &out.ops));
    iotdb::obs::TraceBuffer::StartTracing(size_t{1} << 16);
    runs.push_back(RunOnce(sut.get(), &out.ops));
    iotdb::obs::TraceBuffer::StopTracing();
  }

  double cpu_s = 0;
  uint64_t all_kvps = 0;
  iotdb::obs::HistogramSnapshot insert;
  char line[256];
  for (size_t i = 0; i < runs.size(); ++i) {
    const KitRun& run = runs[i];
    cpu_s += run.cpu_s;
    all_kvps += run.all_kvps;
    auto it = run.measured_delta.histograms.find("driver.insert_batch_micros");
    if (it != run.measured_delta.histograms.end()) {
      insert = MergeHistograms(insert, it->second);
    }
    snprintf(line, sizeof(line),
             "run %zu: %.1f s, measured %llu kvps in %.3f s; performance-run "
             "IoTps %.0f (not gated)\n",
             i + 1, run.wall_s,
             static_cast<unsigned long long>(run.measured_kvps),
             run.measured_s, run.result.IoTps());
    out.report += line;
  }
  std::vector<const KitRun*> all;
  for (const KitRun& run : runs) all.push_back(&run);
  const double iotps = Iotps(all);
  const double insert_p50_ms =
      insert.count == 0 ? 0.0 : insert.Percentile(50) / 1e3;
  const double cpu_us_per_kvp =
      Ratio(cpu_s * 1e6, static_cast<double>(all_kvps));
  snprintf(line, sizeof(line),
           "iotps %.1f kvps/s | insert_ms_p50 %.3f ms (%llu batches) | "
           "cpu_us_per_kvp %.3f (warmups included)\n",
           iotps, insert_p50_ms, static_cast<unsigned long long>(insert.count),
           cpu_us_per_kvp);
  out.report += line;

  if (!args.trace) {
    out.Add("ops_per_s", iotps, "1/s");
    out.Add("op_ms_p50", insert_p50_ms, "ms");
    out.Add("cpu_us_per_op", cpu_us_per_kvp, "us");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    out.Add("setup_s", Median(setup_samples), "s");
    return out;
  }

  const KitRun& traced = runs.back();
  const double untraced_iotps = Iotps({&runs.front()});
  const double traced_iotps = Iotps({&traced});
  const uint64_t dropped = iotdb::obs::TraceBuffer::DroppedSpans();
  std::vector<Span> spans =
      FromTraceEvents(iotdb::obs::TraceBuffer::Snapshot());
  out.report += "program span trace of the traced Run:\n" + LayerTable(spans);
  AddLayerMetrics(traced,
                  100.0 * Ratio(untraced_iotps - traced_iotps, untraced_iotps),
                  dropped, &out);
  return out;
}

}  // namespace kitbench
