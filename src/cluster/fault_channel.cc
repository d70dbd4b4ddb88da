#include "cluster/fault_channel.h"

#include <chrono>

#include "common/clock.h"
#include "obs/metrics.h"

namespace iotdb {
namespace cluster {

namespace {

struct FaultChannelInstruments {
  obs::Counter* dropped;
  obs::Counter* duplicated;
  obs::Counter* reordered;
  obs::Counter* partition_blocked;
};

FaultChannelInstruments& Instruments() {
  static FaultChannelInstruments instruments = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return FaultChannelInstruments{
        registry.GetCounter("cluster.channel.dropped"),
        registry.GetCounter("cluster.channel.duplicated"),
        registry.GetCounter("cluster.channel.reordered"),
        registry.GetCounter("cluster.channel.partition_blocked")};
  }();
  return instruments;
}

}  // namespace

FaultChannel::FaultChannel(std::unique_ptr<Channel> base, uint64_t seed)
    : base_(std::move(base)), rng_(seed == 0 ? 0xfa17c4a7 : seed) {
  timer_thread_ = std::thread([this] { TimerLoop(); });
}

FaultChannel::~FaultChannel() { Shutdown(); }

void FaultChannel::RegisterEndpoint(int endpoint, Handler handler) {
  base_->RegisterEndpoint(endpoint, std::move(handler));
}

void FaultChannel::UnregisterEndpoint(int endpoint) {
  base_->UnregisterEndpoint(endpoint);
}

bool FaultChannel::Send(Message msg) {
  uint64_t delay_micros = 0;
  bool duplicate = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return false;
    counters_.sent++;
    if (!ReachableLocked(msg.src, msg.dst)) {
      counters_.partition_blocked++;
      Instruments().partition_blocked->Increment();
      // Swallowed silently: a real network gives no synchronous failure
      // signal either — the sender finds out via its own timeout.
      return true;
    }
    if (drop_p_ > 0.0 && rng_.NextDouble() < drop_p_) {
      counters_.dropped++;
      Instruments().dropped->Increment();
      return true;
    }
    if (duplicate_p_ > 0.0 && rng_.NextDouble() < duplicate_p_) {
      duplicate = true;
      counters_.duplicated++;
      Instruments().duplicated->Increment();
    }
    auto it = endpoint_delay_.find(msg.dst);
    uint64_t lo = delay_min_micros_, hi = delay_max_micros_;
    if (it != endpoint_delay_.end()) {
      lo = it->second.first;
      hi = it->second.second;
    }
    if (hi > 0) {
      delay_micros = (hi > lo) ? rng_.UniformRange(lo, hi + 1) : lo;
      if (delay_micros > 0) counters_.delayed++;
    }
    if (reorder_p_ > 0.0 && reorder_window_micros_ > 0 &&
        rng_.NextDouble() < reorder_p_) {
      delay_micros += rng_.UniformRange(1, reorder_window_micros_ + 1);
      counters_.reordered++;
      Instruments().reordered->Increment();
    }
    if (delay_micros > 0) {
      uint64_t due = Clock::MonotonicMicros() + delay_micros;
      Message copy;
      if (duplicate) copy = msg;  // rows are shared, so this is cheap
      delayed_.push(DelayedMessage{due, next_seq_++, std::move(msg)});
      if (duplicate) {
        delayed_.push(DelayedMessage{due, next_seq_++, std::move(copy)});
      }
    }
  }
  if (delay_micros > 0) {
    timer_cv_.notify_one();
    return true;
  }
  bool sent = base_->Send(msg);
  if (duplicate) base_->Send(std::move(msg));
  return sent;
}

void FaultChannel::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      base_->Shutdown();
      return;
    }
    stop_ = true;
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  base_->Shutdown();
}

void FaultChannel::SetDefaultDelay(uint64_t min_micros, uint64_t max_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  delay_min_micros_ = min_micros;
  delay_max_micros_ = max_micros;
}

void FaultChannel::SetEndpointDelay(int endpoint, uint64_t min_micros,
                                    uint64_t max_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoint_delay_[endpoint] = {min_micros, max_micros};
}

void FaultChannel::SetDropProbability(double p) {
  std::lock_guard<std::mutex> lock(mu_);
  drop_p_ = p;
}

void FaultChannel::SetDuplicateProbability(double p) {
  std::lock_guard<std::mutex> lock(mu_);
  duplicate_p_ = p;
}

void FaultChannel::SetReorderProbability(double p, uint64_t window_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  reorder_p_ = p;
  reorder_window_micros_ = window_micros;
}

void FaultChannel::Isolate(int endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  isolated_.insert(endpoint);
}

void FaultChannel::PartitionOneWay(int src, int dst) {
  std::lock_guard<std::mutex> lock(mu_);
  blocked_pairs_.insert({src, dst});
}

void FaultChannel::Heal(int endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  isolated_.erase(endpoint);
  for (auto it = blocked_pairs_.begin(); it != blocked_pairs_.end();) {
    if (it->first == endpoint || it->second == endpoint) {
      it = blocked_pairs_.erase(it);
    } else {
      ++it;
    }
  }
}

void FaultChannel::HealAll() {
  std::lock_guard<std::mutex> lock(mu_);
  isolated_.clear();
  blocked_pairs_.clear();
}

bool FaultChannel::Reachable(int src, int dst) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ReachableLocked(src, dst);
}

bool FaultChannel::ReachableLocked(int src, int dst) const {
  if (isolated_.count(src) || isolated_.count(dst)) return false;
  return blocked_pairs_.count({src, dst}) == 0;
}

NetFaultCounters FaultChannel::GetCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void FaultChannel::TimerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stop_) return;
    if (delayed_.empty()) {
      timer_cv_.wait(lock, [this] { return stop_ || !delayed_.empty(); });
      continue;
    }
    uint64_t now = Clock::MonotonicMicros();
    uint64_t due = delayed_.top().due_micros;
    if (due > now) {
      timer_cv_.wait_for(lock, std::chrono::microseconds(due - now));
      continue;
    }
    Message msg = std::move(const_cast<DelayedMessage&>(delayed_.top()).msg);
    delayed_.pop();
    lock.unlock();
    base_->Send(std::move(msg));
    lock.lock();
  }
}

}  // namespace cluster
}  // namespace iotdb
