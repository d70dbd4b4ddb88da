#include "iot/experiments.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/random.h"
#include "iot/rules.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace iotdb {
namespace iot {

HardwareProfile HardwareProfile::UcsBlade() { return HardwareProfile(); }

double ExperimentResult::PerSensorIoTps() const {
  double sensors = static_cast<double>(config.substations) *
                   Rules::kSensorsPerSubstation;
  return sensors <= 0 ? 0 : SystemIoTps() / sensors;
}

bool ExperimentResult::MeetsRateRequirement() const {
  return PerSensorIoTps() >= Rules::kMinPerSensorRate;
}

bool ExperimentResult::MeetsTimeRequirement() const {
  double floor_seconds = Rules::kMinRunSeconds /
                         static_cast<double>(config.scale_divisor);
  return warmup.elapsed_seconds >= floor_seconds &&
         measured.elapsed_seconds >= floor_seconds;
}

double ExperimentResult::MinDriverSeconds() const {
  double best = 0;
  bool first = true;
  for (double s : measured.driver_seconds) {
    if (first || s < best) best = s;
    first = false;
  }
  return best;
}

double ExperimentResult::MaxDriverSeconds() const {
  double worst = 0;
  for (double s : measured.driver_seconds) worst = std::max(worst, s);
  return worst;
}

double ExperimentResult::AvgDriverSeconds() const {
  if (measured.driver_seconds.empty()) return 0;
  double total = 0;
  for (double s : measured.driver_seconds) total += s;
  return total / static_cast<double>(measured.driver_seconds.size());
}

namespace {

/// Registry instruments for the modeled cluster. The simulation reports
/// under the same `storage.* / cluster.* / driver.*` namespaces as the real
/// stack (times are simulated microseconds), so per-figure --metrics-out
/// snapshots carry the same layer breakdown either way.
struct SimInstruments {
  obs::LatencyHistogram* wal_batch_kvps;
  obs::LatencyHistogram* io_service_micros;
  obs::Counter* write_stalls;
  obs::Counter* write_stall_micros;
  obs::Counter* cluster_writes;
  obs::Counter* cluster_bytes_written;
  obs::Counter* ingest_kvps;
  obs::LatencyHistogram* query_micros;
  obs::Counter* query_count;
  obs::Counter* query_rows;
};

SimInstruments& Instruments() {
  static SimInstruments instruments = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return SimInstruments{
        registry.GetHistogram("storage.wal.group_commit_kvps"),
        registry.GetHistogram("storage.io.service_micros"),
        registry.GetCounter("storage.write.stalls"),
        registry.GetCounter("storage.write.stall_micros"),
        registry.GetCounter("cluster.ops.writes"),
        registry.GetCounter("cluster.ops.bytes_written"),
        registry.GetCounter("driver.ingest.kvps"),
        registry.GetHistogram("driver.query_micros"),
        registry.GetCounter("driver.query.count"),
        registry.GetCounter("driver.query.rows")};
  }();
  return instruments;
}

/// One simulated workload execution on the modeled cluster.
class GatewayModel {
 public:
  GatewayModel(const ExperimentConfig& config, uint64_t seed)
      : config_(config), profile_(config.profile), seed_(seed) {
    const int n = config_.nodes;
    effective_rf_ = std::min(profile_.replication, n);
    double wal_fixed = profile_.wal_sync_fixed_us;
    if (profile_.amortize_wal_sync && config_.substations > 1) {
      wal_fixed /= config_.substations;
    }
    for (int i = 0; i < n; ++i) {
      wal_.push_back(std::make_unique<sim::BatchServer>(
          &sim_, static_cast<sim::Time>(profile_.wal_gather_window_us),
          static_cast<sim::Time>(wal_fixed), profile_.wal_per_kvp_us));
      io_.push_back(std::make_unique<sim::Resource>(&sim_, 1, "io"));
      read_.push_back(std::make_unique<sim::Resource>(&sim_, 1, "read"));
      node_bytes_since_stall_.push_back(0);
    }

    // Substation clients with Equation-3 share splitting and a multinomial
    // sensor->node placement (the Figure 15 skew source).
    const int p = config_.substations;
    clients_.resize(p);
    for (int i = 0; i < p; ++i) {
      ClientState& client = clients_[i];
      client.id = i;
      client.remaining = Rules::KvpsForDriver(i + 1, p, total_kvps_target());
      // A substation's rows live in 2N regions (HBase splits scale with the
      // cluster); each region lands on a hash-chosen node. Region-group
      // placement is what makes some substations slower than others
      // (Figure 15): their regions concentrate on hot nodes.
      Random placement(seed_ * 7919 + i * 104729 + 13);
      const int regions = 2 * n;
      client.region_node.assign(regions, 0);
      client.node_sensor_count.assign(n, 0);
      switch (profile_.placement) {
        case HardwareProfile::Placement::kMultinomial:
          for (int r = 0; r < regions; ++r) {
            client.region_node[r] = static_cast<int>(placement.Uniform(n));
          }
          break;
        case HardwareProfile::Placement::kRoundRobin:
          for (int r = 0; r < regions; ++r) {
            client.region_node[r] = r % n;
          }
          break;
        case HardwareProfile::Placement::kSingleNode:
          for (int r = 0; r < regions; ++r) {
            client.region_node[r] = i % n;
          }
          break;
      }
      for (int s = 0; s < Rules::kSensorsPerSubstation; ++s) {
        client.node_sensor_count[client.region_node[s % regions]]++;
      }
      client.rng_state = seed_ ^ (0x9e3779b97f4a7c15ull * (i + 1));
    }
  }

  uint64_t total_kvps_target() const {
    return config_.total_kvps / std::max<uint64_t>(config_.scale_divisor, 1);
  }

  ExecutionStats Run() {
    for (auto& client : clients_) {
      StartRound(&client);
    }
    sim_.Run();

    ExecutionStats stats;
    stats.kvps_ingested = 0;
    double last_end = 0;
    for (const auto& client : clients_) {
      stats.kvps_ingested += client.ingested;
      double end_s = static_cast<double>(client.end_micros) / 1e6;
      stats.driver_seconds.push_back(end_s);
      last_end = std::max(last_end, end_s);
    }
    stats.elapsed_seconds = last_end;
    stats.queries = queries_done_;
    stats.avg_rows_per_query =
        queries_done_ == 0
            ? 0
            : static_cast<double>(query_rows_) / queries_done_;
    stats.query_latency.count = query_latency_.count;
    stats.query_latency.min_us = query_latency_.min;
    stats.query_latency.max_us = query_latency_.max;
    stats.query_latency.mean_us = query_latency_.Mean();
    const double n = static_cast<double>(query_latency_.count);
    const double sum = static_cast<double>(query_latency_.sum);
    const double variance =
        n == 0 ? 0 : (query_latency_sum_squares_ - sum * sum / n) / n;
    stats.query_latency.stddev_us = variance > 0 ? std::sqrt(variance) : 0;
    stats.query_latency.p95_us = query_latency_.Percentile(95);
    return stats;
  }

 private:
  struct ClientState {
    int id = 0;
    uint64_t remaining = 0;
    uint64_t ingested = 0;
    uint64_t next_query_marker = Rules::kReadingsPerQueryBatch;
    uint64_t start_micros = 0;
    uint64_t end_micros = 0;
    uint64_t rounds = 0;
    std::vector<int> region_node;      // region index -> node
    std::vector<int> node_sensor_count;
    uint64_t rng_state = 1;

    double RatePerSensor(sim::Time now) const {
      if (now == 0 || ingested == 0) return 0;
      double seconds = static_cast<double>(now) / 1e6;
      return static_cast<double>(ingested) / seconds /
             Rules::kSensorsPerSubstation;
    }
  };

  uint64_t NextRand(ClientState* c) {
    // xorshift64* inline so client randomness is self-contained.
    uint64_t x = c->rng_state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    c->rng_state = x;
    return x * 0x2545f4914f6cdd1dull;
  }

  void StartRound(ClientState* c) {
    if (c->remaining == 0) {
      c->end_micros = sim_.Now();
      return;
    }
    uint64_t batch = std::min<uint64_t>(profile_.client_batch_kvps,
                                        c->remaining);

    // Split the buffer across nodes proportionally to this substation's
    // sensor placement.
    auto frags = std::make_shared<std::vector<std::pair<int, uint64_t>>>();
    uint64_t assigned = 0;
    for (int node = 0; node < config_.nodes; ++node) {
      uint64_t items = batch * c->node_sensor_count[node] /
                       Rules::kSensorsPerSubstation;
      if (items > 0) {
        frags->emplace_back(node, items);
        assigned += items;
      }
    }
    if (assigned < batch && !frags->empty()) {
      (*frags)[0].second += batch - assigned;  // remainder to first fragment
    } else if (frags->empty()) {
      frags->emplace_back(0, batch);
    }
    // Rotate the visit order per round so concurrent substations do not
    // sweep the nodes in lock-step.
    if (frags->size() > 1) {
      size_t rot = c->rounds % frags->size();
      std::rotate(frags->begin(), frags->begin() + rot, frags->end());
    }
    c->rounds++;

    sim::Time prep = static_cast<sim::Time>(
        profile_.client_round_fixed_us *
            (static_cast<double>(batch) / profile_.client_batch_kvps) +
        profile_.client_per_node_us * frags->size());
    sim_.Schedule(prep, [this, c, frags, batch]() {
      if (profile_.parallel_fanout) {
        auto pending = std::make_shared<size_t>(frags->size());
        for (const auto& [node, items] : *frags) {
          SubmitFragment(node, items, [this, c, pending, batch]() {
            if (--*pending == 0) FinishRound(c, batch);
          });
        }
      } else {
        SendFragment(c, frags, 0, batch);
      }
    });
  }

  void FinishRound(ClientState* c, uint64_t batch) {
    c->remaining -= batch;
    c->ingested += batch;
    Instruments().ingest_kvps->Add(batch);
    while (c->ingested >= c->next_query_marker) {
      for (uint64_t q = 0; q < Rules::kQueriesPerReadings; ++q) {
        IssueQuery(c);
      }
      c->next_query_marker += Rules::kReadingsPerQueryBatch;
    }
    StartRound(c);
  }

  /// One fragment's server-side path: WAL group commit, then the serial
  /// storage/io stage. Service times carry multiplicative jitter (real
  /// flush/compaction interference is bursty, and without it the perfectly
  /// regular client rounds under-produce queueing delay).
  void SubmitFragment(int node, uint64_t items, std::function<void()> done) {
    const uint64_t physical_items = items * effective_rf_;
    wal_[node]->Submit(physical_items, [this, node, physical_items,
                                        done = std::move(done)]() {
      double mean = profile_.io_fixed_us +
                    physical_items * profile_.io_per_kvp_us;
      sim::Time io_time = static_cast<sim::Time>(
          mean * (0.1 + jitter_rng_.Exponential(0.9)));
      Instruments().wal_batch_kvps->Record(physical_items);
      Instruments().io_service_micros->Record(static_cast<uint64_t>(io_time));
      Instruments().cluster_writes->Add(physical_items);
      Instruments().cluster_bytes_written->Add(physical_items * 1024);
      io_[node]->Process(io_time, [this, node, physical_items,
                                   done = std::move(done)](sim::Time) {
        AccountBytes(node, physical_items * 1024);
        done();
      });
    });
  }

  /// The driver flushes its per-region sub-batches sequentially (observed
  /// behaviour this model is calibrated on: per-round cost grows linearly
  /// with node count).
  void SendFragment(ClientState* c,
                    std::shared_ptr<std::vector<std::pair<int, uint64_t>>>
                        frags,
                    size_t index, uint64_t batch) {
    if (index == frags->size()) {
      FinishRound(c, batch);
      return;
    }
    const auto [node, items] = (*frags)[index];
    SubmitFragment(node, items, [this, c, frags, index, batch]() {
      SendFragment(c, frags, index + 1, batch);
    });
  }

  void AccountBytes(int node, uint64_t bytes) {
    // The stall interval is time-based (threshold / byte rate), so it is
    // scale-invariant; scaled-down runs just see proportionally fewer
    // stalls. The 1-2 substation latency tails need --full to show.
    uint64_t threshold = profile_.flush_stall_every_bytes;
    node_bytes_since_stall_[node] += bytes;
    while (node_bytes_since_stall_[node] >= threshold) {
      node_bytes_since_stall_[node] -= threshold;
      Instruments().write_stalls->Increment();
      Instruments().write_stall_micros->Add(
          static_cast<uint64_t>(profile_.flush_stall_us));
      // Compaction/flush burst: occupies the node's read path (scans stall
      // behind compaction IO) while writes keep landing in the memstore.
      read_[node]->Process(static_cast<sim::Time>(profile_.flush_stall_us),
                           [](sim::Time) {});
    }
  }

  void IssueQuery(ClientState* c) {
    // Query one random sensor; it lives on the node hosting its region.
    uint64_t r = NextRand(c);
    int sensor = static_cast<int>(r % Rules::kSensorsPerSubstation);
    int node = c->region_node[sensor % c->region_node.size()];

    // Rows = both 5 s windows at the substation's current per-sensor rate
    // (the paper's Figure 12 metric). The historic window reads 0 rows when
    // the run is younger than the window offset.
    double per_sensor_rate = c->RatePerSensor(sim_.Now());
    double window_rows = per_sensor_rate * Rules::kQueryWindowSeconds;
    double age_seconds = static_cast<double>(sim_.Now()) / 1e6;
    double rows = window_rows +
                  (age_seconds > 2 * Rules::kQueryWindowSeconds
                       ? window_rows
                       : 0);

    sim::Time service = static_cast<sim::Time>(
        profile_.query_fixed_us + rows * profile_.query_per_row_us);
    sim::Time issued = sim_.Now();
    uint64_t row_count = static_cast<uint64_t>(rows);
    read_[node]->Process(service, [this, issued, row_count](sim::Time) {
      sim::Time latency = sim_.Now() - issued +
                          static_cast<sim::Time>(profile_.query_rpc_us);
      query_latency_.Record(latency);
      query_latency_sum_squares_ +=
          static_cast<double>(latency) * static_cast<double>(latency);
      queries_done_++;
      query_rows_ += row_count;
      Instruments().query_micros->Record(static_cast<uint64_t>(latency));
      Instruments().query_count->Increment();
      Instruments().query_rows->Add(row_count);
    });
  }

  ExperimentConfig config_;
  HardwareProfile profile_;
  uint64_t seed_;
  int effective_rf_ = 3;
  Random jitter_rng_{12345};

  sim::Simulator sim_;
  std::vector<std::unique_ptr<sim::BatchServer>> wal_;
  std::vector<std::unique_ptr<sim::Resource>> io_;
  std::vector<std::unique_ptr<sim::Resource>> read_;
  std::vector<uint64_t> node_bytes_since_stall_;
  std::vector<ClientState> clients_;

  obs::HistogramSnapshot query_latency_;
  /// With the snapshot's exact sum, gives the exact Fig. 14 stddev/CoV.
  double query_latency_sum_squares_ = 0;
  uint64_t queries_done_ = 0;
  uint64_t query_rows_ = 0;
};

}  // namespace

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  ExperimentResult result;
  result.config = config;
  {
    GatewayModel warmup_model(config, config.seed);
    result.warmup = warmup_model.Run();
  }
  {
    GatewayModel measured_model(config, config.seed + 1);
    result.measured = measured_model.Run();
  }
  return result;
}

uint64_t PaperRowsFor(int substations) {
  switch (substations) {
    case 1:
      return 50000000ull;
    case 2:
      return 60000000ull;
    case 4:
      return 100000000ull;
    case 8:
      return 240000000ull;
    case 16:
      return 400000000ull;
    case 32:
      return 400000000ull;
    case 48:
      return 400000000ull;
    default:
      return static_cast<uint64_t>(substations) * 10000000ull;
  }
}

std::vector<ExperimentResult> RunSubstationSweep(int nodes,
                                                 uint64_t scale_divisor) {
  std::vector<ExperimentResult> results;
  for (int p : {1, 2, 4, 8, 16, 32, 48}) {
    ExperimentConfig config;
    config.nodes = nodes;
    config.substations = p;
    config.total_kvps = PaperRowsFor(p);
    config.scale_divisor = scale_divisor;
    results.push_back(RunExperiment(config));
  }
  return results;
}

// ---------------------------------------------------------------------------
// Results cache
// ---------------------------------------------------------------------------

namespace {
constexpr const char* kCacheMagic = "tpcx-iot-expcache-v3";
}

Status SaveResultsCache(const std::string& path,
                        const std::vector<ExperimentResult>& results) {
  std::ostringstream out;
  out << kCacheMagic << "\n";
  out << results.size() << "\n";
  for (const ExperimentResult& r : results) {
    out << r.config.nodes << " " << r.config.substations << " "
        << r.config.total_kvps << " " << r.config.scale_divisor << " "
        << r.config.seed << "\n";
    for (const ExecutionStats* stats : {&r.warmup, &r.measured}) {
      out << stats->elapsed_seconds << " " << stats->kvps_ingested << " "
          << stats->queries << " " << stats->avg_rows_per_query << " "
          << stats->query_latency.count << " " << stats->query_latency.min_us
          << " " << stats->query_latency.max_us << " "
          << stats->query_latency.mean_us << " "
          << stats->query_latency.stddev_us << " "
          << stats->query_latency.p95_us << "\n";
      out << stats->driver_seconds.size();
      for (double s : stats->driver_seconds) out << " " << s;
      out << "\n";
    }
  }
  std::ofstream file(path, std::ios::trunc);
  if (!file) return Status::IOError("cannot write cache: " + path);
  file << out.str();
  return Status::OK();
}

Result<std::vector<ExperimentResult>> LoadResultsCache(
    const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("no cache at " + path);
  std::string magic;
  std::getline(file, magic);
  if (magic != kCacheMagic) return Status::NotFound("cache version mismatch");

  size_t count = 0;
  file >> count;
  std::vector<ExperimentResult> results;
  results.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ExperimentResult r;
    file >> r.config.nodes >> r.config.substations >> r.config.total_kvps >>
        r.config.scale_divisor >> r.config.seed;
    for (ExecutionStats* stats : {&r.warmup, &r.measured}) {
      file >> stats->elapsed_seconds >> stats->kvps_ingested >>
          stats->queries >> stats->avg_rows_per_query >>
          stats->query_latency.count >> stats->query_latency.min_us >>
          stats->query_latency.max_us >> stats->query_latency.mean_us >>
          stats->query_latency.stddev_us >> stats->query_latency.p95_us;
      size_t drivers = 0;
      file >> drivers;
      stats->driver_seconds.resize(drivers);
      for (size_t d = 0; d < drivers; ++d) file >> stats->driver_seconds[d];
    }
    if (!file) return Status::Corruption("truncated cache: " + path);
    results.push_back(std::move(r));
  }
  return results;
}

std::vector<ExperimentResult> SweepCached(int nodes, uint64_t scale_divisor,
                                          const std::string& cache_path) {
  auto cached = LoadResultsCache(cache_path);
  if (cached.ok()) {
    const auto& results = cached.ValueOrDie();
    bool matches = !results.empty();
    for (const auto& r : results) {
      if (r.config.nodes != nodes ||
          r.config.scale_divisor != scale_divisor) {
        matches = false;
        break;
      }
    }
    if (matches) return results;
  }
  auto results = RunSubstationSweep(nodes, scale_divisor);
  SaveResultsCache(cache_path, results).ok();
  return results;
}

}  // namespace iot
}  // namespace iotdb
