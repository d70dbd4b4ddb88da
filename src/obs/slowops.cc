#include "obs/slowops.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>

namespace iotdb {
namespace obs {

namespace {

struct RecorderState {
  std::mutex mu;
  size_t capacity = SlowOpRecorder::kDefaultCapacity;
  // Kept sorted slowest-first; small K makes insertion-by-shift cheaper
  // than heap bookkeeping.
  std::vector<SlowOpRecorder::Record> records;
  // Admission threshold: the slowest retained op once full, else 0. Read
  // without the lock on the hot path; a stale-low value only costs one
  // extra lock acquisition, a stale-high value is impossible (the
  // threshold only rises while full and falls to 0 on StartRun, which
  // rewrites it under the lock).
  std::atomic<uint64_t> admit_threshold{0};
  std::atomic<bool> armed{false};
};

RecorderState& State() {
  static RecorderState* state = new RecorderState();  // intentionally leaked
  return *state;
}

}  // namespace

void SlowOpRecorder::StartRun(size_t capacity) {
  RecorderState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.records.clear();
  state.capacity = std::max<size_t>(1, capacity);
  state.admit_threshold.store(0, std::memory_order_relaxed);
  state.armed.store(true, std::memory_order_release);
}

void SlowOpRecorder::StopRun() {
  State().armed.store(false, std::memory_order_release);
}

void SlowOpRecorder::Offer(const OpBreadcrumb& breadcrumb) {
  RecorderState& state = State();
  if (!state.armed.load(std::memory_order_relaxed)) return;
  if (breadcrumb.total_micros <=
      state.admit_threshold.load(std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<std::mutex> lock(state.mu);
  if (!state.armed.load(std::memory_order_relaxed)) return;
  auto pos = std::upper_bound(
      state.records.begin(), state.records.end(), breadcrumb.total_micros,
      [](uint64_t total, const Record& r) {
        return total > r.breadcrumb.total_micros;
      });
  state.records.insert(pos, Record{breadcrumb});
  if (state.records.size() > state.capacity) state.records.pop_back();
  if (state.records.size() == state.capacity) {
    state.admit_threshold.store(state.records.back().breadcrumb.total_micros,
                                std::memory_order_relaxed);
  }
}

std::vector<SlowOpRecorder::Record> SlowOpRecorder::TakeSnapshot() {
  RecorderState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.records;
}

std::string SlowOpRecorder::ToJson() { return ToJson(TakeSnapshot()); }

std::string SlowOpRecorder::ToJson(const std::vector<Record>& records) {
  std::string out = "{\"slow_ops\":[";
  bool first = true;
  for (const Record& record : records) {
    const OpBreadcrumb& bc = record.breadcrumb;
    if (!first) out += ',';
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"op\":\"%s\",\"trace\":\"0x%llx\",\"start_micros\":%llu,"
                  "\"total_micros\":%llu,\"kvps\":%llu,"
                  "\"stage_sum_micros\":%llu,\"stages\":{",
                  bc.op != nullptr ? bc.op : "",
                  static_cast<unsigned long long>(bc.trace_id),
                  static_cast<unsigned long long>(bc.start_micros),
                  static_cast<unsigned long long>(bc.total_micros),
                  static_cast<unsigned long long>(bc.kvps),
                  static_cast<unsigned long long>(bc.StageSum()));
    out += buf;
    for (int i = 0; i < kNumStages; ++i) {
      if (i != 0) out += ',';
      out += '"';
      out += StageName(static_cast<Stage>(i));
      out += "\":";
      out += std::to_string(bc.stage_micros[i]);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace iotdb
