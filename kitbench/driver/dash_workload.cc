// dashboard_query: the kit's four dashboard query templates through
// iot::QueryExecutor over ycsb::ClusterDB, against a 4-node RF=3 cluster
// preloaded with 2 x 100k readings at the TPC floor rate (20 readings per
// second per sensor). Every query reads exactly 200 rows — a 5 s window
// recent and a 5 s window drawn uniformly from the loaded span — and the
// historic windows range far beyond the 8 MiB block cache. Writes are not
// on the measured path: this is the read path alone.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/random.h"
#include "driver/workloads.h"
#include "iot/benchmark_driver.h"
#include "iot/data_generator.h"
#include "iot/kvp.h"
#include "iot/query.h"
#include "lib/dash_model.h"
#include "lib/spans.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "ycsb/bindings.h"

namespace kitbench {

namespace {

using iotdb::cluster::Cluster;
using iotdb::iot::Query;
using iotdb::iot::QueryResult;

constexpr int kNodes = 4;
constexpr int kLoaders = 2;
constexpr int kClients = 2;
constexpr size_t kBatch = 500;
constexpr int kSetupReps = 3;
constexpr size_t kDirectScanQueries = 500;  // per client, traced runs only

const std::vector<std::string>& Substations() {
  static const std::vector<std::string> keys = {"sub0001", "sub0002"};
  return keys;
}

uint64_t LoaderSeed(uint64_t seed, int loader) {
  return seed + static_cast<uint64_t>(loader) * 7919;
}

struct DashSut {
  std::unique_ptr<iotdb::storage::Env> env;  // outlives the cluster
  std::unique_ptr<Cluster> cluster;
};

/// Starts the cluster and loads every substation's readings through
/// cluster::Client, then waits until replication and every store's
/// background work are idle.
std::unique_ptr<DashSut> SetUp(const DashShape& shape, uint64_t seed) {
  auto sut = std::make_unique<DashSut>();
  sut->env = iotdb::storage::NewMemEnv();
  iotdb::cluster::ClusterOptions options;
  options.num_nodes = kNodes;
  options.replication_factor = 3;
  options.shard_key_fn = iotdb::iot::TpcxIotShardKey;
  options.storage_options.env = sut->env.get();
  auto started = Cluster::Start(options);
  if (!started.ok()) {
    fprintf(stderr, "cluster start failed: %s\n",
            started.status().ToString().c_str());
    return nullptr;
  }
  sut->cluster = std::move(started).MoveValueUnsafe();

  std::atomic<bool> load_ok{true};
  std::vector<std::thread> loaders;
  for (int i = 0; i < kLoaders; ++i) {
    loaders.emplace_back([&, i]() {
      iotdb::ManualClock clock(shape.start_micros);
      iotdb::iot::DataGenerator gen(Substations()[i],
                                    shape.readings_per_substation,
                                    LoaderSeed(seed, i), &clock);
      iotdb::cluster::Client client(sut->cluster.get());
      std::vector<std::pair<std::string, std::string>> batch;
      batch.reserve(kBatch);
      while (gen.HasNext()) {
        clock.Advance(shape.step_micros);
        iotdb::iot::Kvp kvp = gen.Next();
        batch.emplace_back(std::move(kvp.key), std::move(kvp.value));
        if (batch.size() == kBatch || !gen.HasNext()) {
          iotdb::Status s = client.PutBatch(batch);
          if (!s.ok()) {
            fprintf(stderr, "preload failed: %s\n", s.ToString().c_str());
            load_ok = false;
            return;
          }
          batch.clear();
        }
      }
    });
  }
  for (auto& t : loaders) t.join();
  if (!load_ok) return nullptr;
  if (!sut->cluster->WaitReplicationIdle().ok()) return nullptr;
  for (int i = 0; i < kNodes; ++i) {
    sut->cluster->node(i)->store()->WaitForBackgroundWork();
  }
  return sut;
}

/// Regenerates the loaded readings and records each as the store holds it
/// (the decoded value of its encoded kvp).
bool BuildModel(const DashShape& shape, uint64_t seed, DashModel* model) {
  for (int i = 0; i < kLoaders; ++i) {
    iotdb::ManualClock clock(shape.start_micros);
    iotdb::iot::DataGenerator gen(Substations()[i],
                                  shape.readings_per_substation,
                                  LoaderSeed(seed, i), &clock);
    while (gen.HasNext()) {
      clock.Advance(shape.step_micros);
      iotdb::iot::Kvp kvp = gen.Next();
      auto reading = iotdb::iot::KvpCodec::Decode(iotdb::Slice(kvp.key),
                                                  iotdb::Slice(kvp.value));
      if (!reading.ok()) return false;
      const auto& r = reading.ValueOrDie();
      model->Add(r.substation_key, r.sensor_key, r.timestamp_micros, r.value);
    }
  }
  return true;
}

/// ycsb::DB decorator that records a `cluster.scan` span around every
/// Client::Scan, under the span the caller sets before each query.
class TimedDB final : public iotdb::ycsb::DB {
 public:
  TimedDB(iotdb::ycsb::DB* inner, SpanLog* log) : inner_(inner), log_(log) {}

  void SetParent(uint64_t op_id, uint64_t parent_id) {
    op_id_ = op_id;
    parent_id_ = parent_id;
  }

  iotdb::Status Insert(const iotdb::Slice& key,
                       const iotdb::Slice& value) override {
    return inner_->Insert(key, value);
  }
  iotdb::Result<std::string> Read(const iotdb::Slice& key) override {
    return inner_->Read(key);
  }
  iotdb::Status Scan(
      const iotdb::Slice& shard_key, const iotdb::Slice& start,
      const iotdb::Slice& end_exclusive, size_t limit,
      std::vector<std::pair<std::string, std::string>>* out) override {
    ScopedSpan span(log_, "cluster.scan", op_id_, parent_id_);
    return inner_->Scan(shard_key, start, end_exclusive, limit, out);
  }

 private:
  iotdb::ycsb::DB* inner_;
  SpanLog* log_;
  uint64_t op_id_ = 0;
  uint64_t parent_id_ = 0;
};

struct QueryClient {
  std::vector<double> latency_ms;
  uint64_t rows = 0;
  OpCount ops;
  SpanLog spans;
  std::vector<Query> sample;  // re-run as direct store scans when traced

  explicit QueryClient(bool traced) : spans(traced) {}
};

void QueryLoop(Cluster* cluster, const DashModel& model,
               const DashShape& shape, uint64_t seed, uint64_t deadline_ns,
               QueryClient* c) {
  iotdb::ycsb::ClusterDB cluster_db(cluster);
  TimedDB timed(&cluster_db, &c->spans);
  iotdb::iot::QueryExecutor executor(
      c->spans.enabled() ? static_cast<iotdb::ycsb::DB*>(&timed)
                         : &cluster_db);
  const iotdb::iot::SensorCatalog& catalog =
      iotdb::iot::SensorCatalog::Default();
  iotdb::Random rng(seed);
  while (NowNanos() < deadline_ns) {
    const Query query = MakeDashQuery(shape, Substations(), catalog, &rng);
    const uint64_t op = SpanLog::NextId();
    ScopedSpan op_span(&c->spans, "dash.query", op, 0);
    iotdb::Result<QueryResult> result = QueryResult();
    const uint64_t t0 = NowNanos();
    {
      ScopedSpan execute(&c->spans, "iot.execute", op, op_span.id());
      timed.SetParent(op, execute.id());
      result = executor.Execute(query);
    }
    const uint64_t t1 = NowNanos();
    const bool ok =
        result.ok() && SameAnswer(result.ValueOrDie(), model.Expected(query));
    c->ops.Record(ok);
    if (!ok) continue;
    c->latency_ms.push_back((t1 - t0) / 1e6);
    c->rows += result.ValueOrDie().rows_read;
    if (c->sample.size() < kDirectScanQueries) c->sample.push_back(query);
  }
}

struct Phase {
  std::vector<std::unique_ptr<QueryClient>> clients;
  double seconds = 0;
  double cpu_s = 0;
  iotdb::obs::MetricsSnapshot delta;

  uint64_t Queries() const {
    uint64_t n = 0;
    for (const auto& c : clients) n += c->latency_ms.size();
    return n;
  }
  uint64_t Rows() const {
    uint64_t n = 0;
    for (const auto& c : clients) n += c->rows;
    return n;
  }
  std::vector<double> Latencies() const {
    std::vector<double> all;
    for (const auto& c : clients) {
      all.insert(all.end(), c->latency_ms.begin(), c->latency_ms.end());
    }
    return all;
  }
  std::vector<Span> Spans() const {
    std::vector<Span> all;
    for (const auto& c : clients) {
      all.insert(all.end(), c->spans.spans().begin(), c->spans.spans().end());
    }
    return all;
  }
  uint64_t DroppedSpans() const {
    uint64_t n = 0;
    for (const auto& c : clients) n += c->spans.dropped();
    return n;
  }
};

Phase RunPhase(Cluster* cluster, const DashModel& model,
               const DashShape& shape, uint64_t seed, double seconds,
               bool traced, OpCount* ops) {
  Phase phase;
  for (int i = 0; i < kClients; ++i) {
    phase.clients.push_back(std::make_unique<QueryClient>(traced));
  }
  const auto before = iotdb::obs::MetricsRegistry::Global().TakeSnapshot();
  const double cpu0 = CpuSeconds();
  const uint64_t t0 = NowNanos();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    const uint64_t client_seed =
        (seed * 0x9E3779B97F4A7C15ull) ^ (0xda5bull + static_cast<uint64_t>(i));
    threads.emplace_back(QueryLoop, cluster, std::cref(model),
                         std::cref(shape), client_seed, deadline,
                         phase.clients[i].get());
  }
  for (auto& t : threads) t.join();
  phase.seconds = (NowNanos() - t0) / 1e9;
  phase.cpu_s = CpuSeconds() - cpu0;
  phase.delta = iotdb::obs::MetricsRegistry::Global().TakeSnapshot().DeltaSince(
      before);
  for (const auto& c : phase.clients) ops->Merge(c->ops);
  return phase;
}

/// The same windows the sampled queries read, scanned directly on the
/// primary's KVStore: the gap to cluster.scan is the cluster read path.
std::vector<double> DirectStoreScans(Cluster* cluster, const Phase& phase,
                                     const DashShape& shape, OpCount* ops) {
  std::vector<double> scan_ms;
  std::vector<std::pair<std::string, std::string>> rows;
  for (const auto& c : phase.clients) {
    for (const Query& q : c->sample) {
      for (auto [lo, hi] : {std::make_pair(q.recent_start_micros,
                                           q.recent_end_micros),
                            std::make_pair(q.past_start_micros,
                                           q.past_end_micros)}) {
        const std::string start =
            iotdb::iot::KvpCodec::EncodeKey(q.substation_key, q.sensor_key, lo);
        const std::string end =
            iotdb::iot::KvpCodec::EncodeKey(q.substation_key, q.sensor_key, hi);
        const iotdb::Slice shard =
            iotdb::iot::KvpCodec::ShardPrefixOf(iotdb::Slice(start));
        const int primary = cluster->ReplicaNodesForShardKey(shard)[0];
        rows.clear();
        const uint64_t t0 = NowNanos();
        iotdb::Status s = cluster->node(primary)->store()->Scan(
            iotdb::storage::ReadOptions(), iotdb::Slice(start),
            iotdb::Slice(end), 0, &rows);
        scan_ms.push_back((NowNanos() - t0) / 1e6);
        ops->Record(s.ok() && rows.size() == shape.RowsPerWindow());
      }
    }
  }
  return scan_ms;
}

uint64_t ClusterEnvBytes(Cluster* cluster, iotdb::storage::Env* env) {
  uint64_t total = 0;
  for (int i = 0; i < cluster->num_nodes(); ++i) {
    const std::string& dir = cluster->node(i)->data_dir();
    auto names = env->ListDir(dir);
    if (!names.ok()) continue;
    for (const std::string& name : names.ValueOrDie()) {
      auto size = env->FileSize(dir + "/" + name);
      if (size.ok()) total += size.ValueOrDie();
    }
  }
  return total;
}

}  // namespace

WorkloadOutput RunDashboardQuery(const RunArgs& args) {
  WorkloadOutput out;
  const DashShape shape;
  std::unique_ptr<DashSut> sut;
  std::vector<double> setup_samples;
  if (!SampleSetUp(kSetupReps, &sut, &setup_samples,
                   [&]() { return SetUp(shape, args.seed); })) {
    out.ops.Record(false);
    return out;
  }
  DashModel model;
  if (!BuildModel(shape, args.seed, &model)) {
    out.ops.Record(false);
    return out;
  }
  Cluster* cluster = sut->cluster.get();

  uint64_t tables = 0;
  for (int i = 0; i < kNodes; ++i) {
    iotdb::storage::KVStoreStats stats = cluster->node(i)->store()->GetStats();
    for (int level = 0; level < iotdb::storage::kNumLevels; ++level) {
      tables += static_cast<uint64_t>(stats.num_files[level]);
    }
  }
  const double user_bytes =
      static_cast<double>(model.readings()) * 1024.0;  // 1 KiB kit kvps
  const double space_amp =
      Ratio(static_cast<double>(ClusterEnvBytes(cluster, sut->env.get())),
            3 * user_bytes);
  iotdb::storage::KVStore* store0 = cluster->node(0)->store();
  out.Note("cluster", std::to_string(kNodes) + " nodes, RF=3, " +
                          std::to_string(kLoaders) + " substations x " +
                          std::to_string(shape.readings_per_substation) +
                          " readings, " + std::to_string(kClients) +
                          " query clients");
  out.Note("store.num_write_shards",
           std::to_string(store0->num_write_shards()));
  out.Note("store.value_separation",
           cluster->options().storage_options.value_separation ? "on"
                                                               : "off");

  const double headline_s = args.trace ? args.seconds / 2 : args.seconds;
  Phase untraced = RunPhase(cluster, model, shape, args.seed, headline_s,
                            /*traced=*/false, &out.ops);
  const std::vector<double> latencies = untraced.Latencies();
  const Summary query = Summarize(latencies);
  const double qps =
      Ratio(static_cast<double>(untraced.Queries()), untraced.seconds);
  const double cpu_us_per_query =
      Ratio(untraced.cpu_s * 1e6, static_cast<double>(untraced.Queries()));
  const double rows_per_query = Ratio(static_cast<double>(untraced.Rows()),
                                      static_cast<double>(untraced.Queries()));
  char line[320];
  snprintf(line, sizeof(line),
           "setup (preload + settle) %.3f s median of %d | %llu tables | "
           "space_amp %.3f\n"
           "queries_per_s %.1f | query_ms_p50 %.3f | query_ms_p99 %.3f | "
           "p%g %.3f ms over %llu queries | rows/query %.1f (expected %llu) "
           "| cpu_us_per_query %.1f\n",
           Median(setup_samples), kSetupReps,
           static_cast<unsigned long long>(tables), space_amp, qps, query.p50,
           Percentile(latencies, 99), query.tail_pct, query.tail,
           static_cast<unsigned long long>(query.count), rows_per_query,
           static_cast<unsigned long long>(shape.RowsPerQuery()),
           cpu_us_per_query);
  out.report += line;

  if (!args.trace) {
    out.Add("ops_per_s", qps, "1/s");
    out.Add("op_ms_p50", query.p50, "ms");
    out.Add("cpu_us_per_op", cpu_us_per_query, "us");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    out.Add("setup_s", Median(setup_samples), "s");
    return out;
  }

  Phase traced = RunPhase(cluster, model, shape, args.seed + 1,
                          args.seconds - headline_s, /*traced=*/true,
                          &out.ops);
  const std::vector<Span> spans = traced.Spans();
  out.report += LayerTable(spans);
  const std::map<std::string, SelfTime> by_name = SelfTimeByName(spans);
  std::vector<double> cluster_scan_ms;
  for (const Span& s : spans) {
    if (std::string(s.name) == "cluster.scan") {
      cluster_scan_ms.push_back(s.duration_ns() / 1e6);
    }
  }
  const std::vector<double> store_scan_ms =
      DirectStoreScans(cluster, traced, shape, &out.ops);
  const double traced_queries = static_cast<double>(traced.Queries());
  const double traced_qps = Ratio(traced_queries, traced.seconds);
  auto execute = by_name.find("iot.execute");
  const uint64_t hits = CounterOf(traced.delta, "storage.block_cache.hits");
  const uint64_t misses =
      CounterOf(traced.delta, "storage.block_cache.misses");

  out.Add("iot.aggregate_us_per_query",
          execute == by_name.end()
              ? 0.0
              : Ratio(execute->second.self_ns / 1e3, traced_queries),
          "us");
  out.Add("iot.rows_per_query",
          Ratio(static_cast<double>(traced.Rows()), traced_queries), "rows");
  out.Add("iot.query_ms_p99", Percentile(latencies, 99), "ms");
  out.Add("cluster.scan_ms_p50", Percentile(cluster_scan_ms, 50), "ms");
  out.Add("cluster.scan_ms_p99", Percentile(cluster_scan_ms, 99), "ms");
  out.Add("storage.scan_ms_p50", Percentile(store_scan_ms, 50), "ms");
  out.Add("storage.block_cache_hit_rate",
          Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
          "ratio");
  out.Add("storage.vlog_derefs_per_row",
          Ratio(static_cast<double>(
                    CounterOf(traced.delta, "storage.vlog.dereferences")),
                static_cast<double>(traced.Rows())),
          "count");
  out.Add("storage.tables_at_start", static_cast<double>(tables), "count");
  out.Add("storage.space_amp", space_amp, "ratio");
  out.Add("obs.trace_overhead_pct", 100.0 * Ratio(qps - traced_qps, qps),
          "%");
  out.Add("obs.dropped_spans", static_cast<double>(traced.DroppedSpans()),
          "count");
  return out;
}

}  // namespace kitbench
