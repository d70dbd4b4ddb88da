#ifndef KITBENCH_DRIVER_WORKLOADS_H_
#define KITBENCH_DRIVER_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lib/spans.h"
#include "lib/stats.h"

namespace kitbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. Untraced runs fill the end-to-end
/// metrics, traced runs the per-layer ones.
struct WorkloadOutput {
  OpCount ops;
  std::vector<Metric> metrics;
  /// Facts about what ran: cluster shape, the store config as opened.
  std::vector<std::pair<std::string, std::string>> config;
  /// Human-readable lines: per-workload figures (iotps, queries_per_s, ...)
  /// and the traced layer table.
  std::string report;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string key, std::string value) {
    config.emplace_back(std::move(key), std::move(value));
  }
};

WorkloadOutput RunKitIngest(const RunArgs& args);
WorkloadOutput RunStoreIngest(const RunArgs& args);
WorkloadOutput RunDashboardQuery(const RunArgs& args);

/// Process CPU time (user + system, all threads) in seconds.
double CpuSeconds();
/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();
/// Host and build facts every result records.
std::vector<std::pair<std::string, std::string>> HostFacts();

/// Shortest decimal form of `v` that reads back exactly.
std::string Num(double v);

/// Sets up `reps` times into `*holder`, timing each `make()` and appending
/// the seconds to `samples`; the previous object is destroyed untimed.
/// Workloads sample set-up at several points of a run, so the median they
/// report spans the host's state over the whole run, not one instant.
/// Returns false (holder empty) when a set-up fails.
template <typename T, typename Make>
bool SampleSetUp(int reps, std::unique_ptr<T>* holder,
                 std::vector<double>* samples, Make&& make) {
  for (int i = 0; i < reps; ++i) {
    holder->reset();
    const uint64_t t0 = NowNanos();
    *holder = make();
    samples->push_back((NowNanos() - t0) / 1e9);
    if (*holder == nullptr) return false;
  }
  return true;
}

}  // namespace kitbench

#endif  // KITBENCH_DRIVER_WORKLOADS_H_
