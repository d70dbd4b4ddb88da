#include "cluster/cluster.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/bloom.h"  // reuse BloomHash as the shard hash

namespace iotdb {
namespace cluster {

namespace {

// Rows per batch when catching a restarted node up via full shard re-copy.
constexpr size_t kRecopyBatchRows = 512;
// Matches the WaitReplicationIdle default (cluster.h).
constexpr uint64_t kReplicationIdleMicros = 60'000'000;

/// Global `cluster.*` registry instruments, resolved once. Shared by every
/// Cluster/Client in the process (mirrors the per-cluster FaultRecoveryStats
/// and NodeStats, which stay exact and per-instance).
struct ClusterInstruments {
  obs::LatencyHistogram* fanout_micros;
  obs::Gauge* hint_queue_depth;
  obs::Counter* hints_recorded_kvps;
  obs::Counter* hints_replayed_kvps;
  obs::Counter* retry_attempts;
  obs::Counter* degraded_batches;
  obs::Counter* read_repair_served;
  obs::Counter* quarantined_files;
  obs::Counter* corruption_repairs;
  obs::Counter* quorum_met_writes;
  obs::Counter* unavailable_writes;
  obs::Counter* straggler_hint_kvps;
  obs::Counter* deadline_exceeded;
  obs::Counter* duplicate_acks;
};

ClusterInstruments& Instruments() {
  static ClusterInstruments instruments = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return ClusterInstruments{
        registry.GetHistogram("cluster.replication.fanout_micros"),
        registry.GetGauge("cluster.hints.queue_depth"),
        registry.GetCounter("cluster.hints.recorded_kvps"),
        registry.GetCounter("cluster.hints.replayed_kvps"),
        registry.GetCounter("cluster.retry.attempts"),
        registry.GetCounter("cluster.write.degraded_batches"),
        registry.GetCounter("cluster.read_repair.served"),
        registry.GetCounter("cluster.read_repair.quarantined_files"),
        registry.GetCounter("cluster.read_repair.shard_recopies"),
        registry.GetCounter("cluster.quorum.writes_met"),
        registry.GetCounter("cluster.quorum.writes_unavailable"),
        registry.GetCounter("cluster.hints.straggler_kvps"),
        registry.GetCounter("cluster.client.deadline_exceeded"),
        registry.GetCounter("cluster.quorum.duplicate_acks")};
  }();
  return instruments;
}

bool IsRetryable(const Status& s) {
  return s.IsIOError() || s.IsBusy() || s.IsTimedOut();
}

uint64_t SplitMix(std::atomic<uint64_t>& state) {
  uint64_t z = state.fetch_add(0x9E3779B97F4A7C15ull,
                               std::memory_order_relaxed) +
               0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t BackoffWithJitter(const RetryPolicy& policy, int completed_attempts,
                           std::atomic<uint64_t>& jitter_state) {
  double backoff = static_cast<double>(policy.initial_backoff_micros) *
                   std::pow(policy.backoff_multiplier,
                            std::max(0, completed_attempts - 1));
  backoff = std::min(backoff, static_cast<double>(policy.max_backoff_micros));
  if (policy.jitter > 0) {
    // Subtract a random fraction of `jitter * backoff` so concurrent
    // clients retrying the same fault decorrelate.
    double fraction = static_cast<double>(SplitMix(jitter_state) >> 11) *
                      (1.0 / (1ull << 53));
    backoff *= 1.0 - policy.jitter * fraction;
  }
  return static_cast<uint64_t>(backoff);
}

}  // namespace

Cluster::Cluster(const ClusterOptions& options) : options_(options) {}

Cluster::~Cluster() {
  ShutdownReplication();
  // Nodes hold stores using fault_env_; destroy them first.
  nodes_.clear();
  // Gauges are process-global levels: with this cluster gone its queues no
  // longer exist, so zero them or the next cluster in the process inherits
  // ghost depth (bench_real_cluster runs several clusters back to back).
  Instruments().hint_queue_depth->Set(0);
  for (obs::Gauge* gauge : node_hint_depth_) gauge->Set(0);
}

void Cluster::ShutdownReplication() {
  {
    std::lock_guard<std::mutex> lock(writes_mu_);
    if (replication_shutdown_) return;
    replication_shutdown_ = true;
    for (auto& [id, pw] : pending_writes_) {
      if (!pw->done) {
        pw->done = true;
        pw->quorum_met = false;
        pw->error = Status::Aborted("cluster shutting down");
      }
    }
    pending_writes_.clear();
  }
  writes_cv_.notify_all();
  timer_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(hints_mu_);
    drain_shutdown_ = true;
  }
  hints_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(hint_ack_mu_);
    hint_shutdown_ = true;
  }
  hint_ack_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  if (drain_thread_.joinable()) drain_thread_.join();
  // Joins every mailbox/timer thread; no handler runs past this point, so
  // the nodes_ teardown that follows cannot race a delivery.
  if (channel_ != nullptr) channel_->Shutdown();
}

Result<std::unique_ptr<Cluster>> Cluster::Start(
    const ClusterOptions& options) {
  auto cluster = std::unique_ptr<Cluster>(new Cluster(options));
  if (cluster->options_.num_nodes < 1) {
    return Status::InvalidArgument("cluster needs at least one node");
  }
  if (cluster->options_.storage_options.env == nullptr) {
    cluster->owned_env_ = storage::NewMemEnv();
    cluster->options_.storage_options.env = cluster->owned_env_.get();
  }
  if (cluster->options_.enable_fault_injection) {
    cluster->fault_env_ = std::make_unique<storage::FaultInjectionEnv>(
        cluster->options_.storage_options.env, cluster->options_.fault_seed);
    cluster->options_.storage_options.env = cluster->fault_env_.get();
  }
  cluster->hints_.resize(static_cast<size_t>(cluster->options_.num_nodes));
  auto& registry = obs::MetricsRegistry::Global();
  for (int i = 0; i < cluster->options_.num_nodes; ++i) {
    cluster->node_hint_depth_.push_back(registry.GetGauge(
        "cluster.node" + std::to_string(i) + ".hint_queue_depth"));
  }
  Cluster* raw = cluster.get();

  // The replication plane: an in-process channel, optionally wrapped in the
  // seeded network-fault decorator.
  auto base = NewInProcessChannel();
  if (cluster->options_.enable_net_fault_injection) {
    auto faulty = std::make_unique<FaultChannel>(
        std::move(base), cluster->options_.net_fault_seed);
    cluster->net_fault_channel_ = faulty.get();
    cluster->channel_ = std::move(faulty);
  } else {
    cluster->channel_ = std::move(base);
  }
  cluster->channel_->RegisterEndpoint(
      kCoordinatorEndpoint,
      [raw](Message msg) { raw->HandleCoordinatorMessage(std::move(msg)); });
  cluster->channel_->RegisterEndpoint(
      kHintServiceEndpoint,
      [raw](Message msg) { raw->HandleHintServiceMessage(std::move(msg)); });

  auto on_quarantine = [raw](int node_id, const std::string& path,
                             const Status& cause) {
    raw->OnNodeQuarantine(node_id, path, cause);
  };
  for (int i = 0; i < cluster->options_.num_nodes; ++i) {
    std::string dir =
        cluster->options_.data_root + "/node" + std::to_string(i);
    IOTDB_ASSIGN_OR_RETURN(
        auto node,
        Node::Start(i, cluster->options_.storage_options, dir,
                    cluster->fault_env_.get(), on_quarantine));
    cluster->nodes_.push_back(std::move(node));
  }
  // Replica endpoints only go live once every node exists: a handler
  // indexes nodes_ by id.
  for (int i = 0; i < cluster->options_.num_nodes; ++i) {
    cluster->channel_->RegisterEndpoint(i, [raw, i](Message msg) {
      raw->HandleReplicaMessage(i, std::move(msg));
    });
  }
  cluster->timer_thread_ = std::thread([raw] { raw->TimerLoop(); });
  cluster->drain_thread_ = std::thread([raw] { raw->HintDrainLoop(); });
  return cluster;
}

void Cluster::OnNodeQuarantine(int node_id, const std::string& path,
                               const Status& cause) {
  // May run on a store background thread with store locks held: only
  // record and enqueue — repair happens in RunPendingRepairs(). repair_mu_
  // is a leaf lock, so this never waits on a thread that could be waiting
  // on those store locks.
  (void)path;
  (void)cause;
  {
    std::lock_guard<std::mutex> lock(repair_mu_);
    corrupt_files_quarantined_++;
    pending_repair_.insert(node_id);
  }
  Instruments().quarantined_files->Increment();
}

void Cluster::RecordReadRepair() {
  std::lock_guard<std::mutex> lock(hints_mu_);
  fault_stats_.read_repairs++;
  Instruments().read_repair_served->Increment();
}

std::vector<int> Cluster::PendingRepairNodes() const {
  std::lock_guard<std::mutex> lock(repair_mu_);
  return std::vector<int>(pending_repair_.begin(), pending_repair_.end());
}

Status Cluster::RunPendingRepairs() {
  std::set<int> pending;
  {
    std::lock_guard<std::mutex> lock(repair_mu_);
    pending.swap(pending_repair_);
  }
  Status first_error;
  for (int id : pending) {
    Node* node = nodes_[id].get();
    if (node->is_down() || !node->is_running()) {
      // Defer: the RestartNode path re-copies a crashed node's shards
      // anyway, and its quarantine flag forces a re-copy there too.
      std::lock_guard<std::mutex> lock(repair_mu_);
      pending_repair_.insert(id);
      continue;
    }
    Status s = RecopyShards(id);
    if (!s.ok()) {
      if (first_error.ok()) first_error = s;
      std::lock_guard<std::mutex> lock(repair_mu_);
      pending_repair_.insert(id);  // retry on the next pass
      continue;
    }
    // Every key the node replicates has been re-written from a healthy
    // replica; local reads are trustworthy again.
    node->ClearUnderRepair();
    std::lock_guard<std::mutex> lock(hints_mu_);
    fault_stats_.corruption_repairs++;
    Instruments().corruption_repairs->Increment();
  }
  return first_error;
}

Clock* Cluster::clock() const {
  return options_.storage_options.clock != nullptr
             ? options_.storage_options.clock
             : Clock::Real();
}

int Cluster::effective_replication() const {
  return std::min(options_.replication_factor, num_nodes());
}

int Cluster::write_quorum() const {
  return effective_replication() / 2 + 1;
}

Slice Cluster::ShardKeyOf(const Slice& row_key) const {
  if (options_.shard_key_fn) return options_.shard_key_fn(row_key);
  return row_key;
}

int Cluster::PrimaryNodeFor(const Slice& row_key) const {
  uint32_t h = storage::BloomHash(ShardKeyOf(row_key));
  return static_cast<int>(h % static_cast<uint32_t>(num_nodes()));
}

std::vector<int> Cluster::ReplicaNodesFor(const Slice& row_key) const {
  return ReplicaNodesForShardKey(ShardKeyOf(row_key));
}

std::vector<int> Cluster::ReplicaNodesForShardKey(
    const Slice& shard_key) const {
  uint32_t h = storage::BloomHash(shard_key);
  return ReplicaNodesForPrimary(
      static_cast<int>(h % static_cast<uint32_t>(num_nodes())));
}

std::vector<int> Cluster::ReplicaNodesForPrimary(int primary) const {
  int replicas = effective_replication();
  std::vector<int> result;
  result.reserve(replicas);
  for (int i = 0; i < replicas; ++i) {
    result.push_back((primary + i) % num_nodes());
  }
  return result;
}

bool Cluster::IsNodeReachable(int node_id) const {
  if (net_fault_channel_ == nullptr) return true;
  return net_fault_channel_->Reachable(kCoordinatorEndpoint, node_id) &&
         net_fault_channel_->Reachable(node_id, kCoordinatorEndpoint);
}

Status Cluster::CrashNode(int id) {
  if (id < 0 || id >= num_nodes()) {
    return Status::InvalidArgument("no such node: " + std::to_string(id));
  }
  IOTDB_RETURN_NOT_OK(nodes_[id]->Crash());
  {
    std::lock_guard<std::mutex> lock(hints_mu_);
    fault_stats_.node_crashes++;
    // A crashed node lost unsynced state, so rejoin takes a full shard
    // re-copy no matter what — hints buffered for it are dead weight, and
    // their queue depth would haunt the timeline for as long as the node
    // stays down. Reuse the overflow path: drop the rows now; `overflowed`
    // keeps TryRecordHint from buffering more and forces the re-copy.
    hints_[id].rows.clear();
    hints_[id].rows.shrink_to_fit();
    hints_[id].overflowed = true;
    UpdateHintDepthGaugeLocked();
  }
  hints_cv_.notify_all();  // a WaitReplicationIdle no longer waits on id
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Channel handlers (run on channel delivery threads)
// ---------------------------------------------------------------------------

void Cluster::HandleReplicaMessage(int node_id, Message msg) {
  Node* node = nodes_[node_id].get();
  switch (msg.kind) {
    case MessageKind::kWriteRequest: {
      // Sequence numbers are assigned per node store, so each replica
      // ingests the shared rows directly (one vectorized PutMany).
      // The message's trace header becomes the mailbox thread's current
      // context, so the storage write path below links its group-commit
      // spans into the originating op's flow; the apply also gets its own
      // breadcrumb so replica-side storage stages enter the attribution
      // histograms.
      const bool traced =
          msg.trace_id != 0 && obs::TraceBuffer::Enabled();
      obs::TraceContext apply_ctx;
      if (traced) {
        apply_ctx.trace_id = msg.trace_id;
        apply_ctx.span_id = obs::TraceContext::NextId();
        apply_ctx.parent_id = msg.parent_span_id;
      }
      obs::ScopedOpBreadcrumb breadcrumb("cluster.replica_apply",
                                         msg.trace_id, msg.kvps);
      const uint64_t t0 = clock()->NowMicros();
      Status s;
      {
        obs::ScopedTraceContext ctx_scope(apply_ctx);
        s = node->ApplyRows(*msg.rows, msg.as_primary, msg.kvps, msg.bytes);
      }
      const uint64_t elapsed = clock()->NowMicros() - t0;
      breadcrumb.Complete(t0, elapsed);
      if (traced) {
        obs::TraceBuffer::Record("cluster.replica_apply", t0, elapsed,
                                 apply_ctx, "kvps", msg.kvps);
      }
      Message ack;
      ack.kind = MessageKind::kWriteAck;
      ack.request_id = msg.request_id;
      ack.src = node_id;
      ack.dst = kCoordinatorEndpoint;
      ack.kvps = msg.kvps;
      ack.trace_id = msg.trace_id;
      ack.parent_span_id = msg.parent_span_id;
      ack.status = std::move(s);
      channel_->Send(std::move(ack));
      return;
    }
    case MessageKind::kHintReplay: {
      const bool traced =
          msg.trace_id != 0 && obs::TraceBuffer::Enabled();
      obs::TraceContext apply_ctx;
      if (traced) {
        apply_ctx.trace_id = msg.trace_id;
        apply_ctx.span_id = obs::TraceContext::NextId();
        apply_ctx.parent_id = msg.parent_span_id;
      }
      const uint64_t t0 = traced ? clock()->NowMicros() : 0;
      Status s;
      {
        obs::ScopedTraceContext ctx_scope(apply_ctx);
        s = node->ApplyHintBatch(*msg.rows);
      }
      if (traced) {
        obs::TraceBuffer::Record("cluster.hint_apply", t0,
                                 clock()->NowMicros() - t0, apply_ctx,
                                 "kvps", msg.kvps);
      }
      Message ack;
      ack.kind = MessageKind::kHintAck;
      ack.request_id = msg.request_id;
      ack.src = node_id;
      ack.dst = kHintServiceEndpoint;
      ack.trace_id = msg.trace_id;
      ack.parent_span_id = msg.parent_span_id;
      ack.status = std::move(s);
      channel_->Send(std::move(ack));
      return;
    }
    default:
      return;  // acks never target a replica endpoint
  }
}

void Cluster::HandleCoordinatorMessage(Message msg) {
  if (msg.kind != MessageKind::kWriteAck) return;
  std::lock_guard<std::mutex> lock(writes_mu_);
  if (replication_shutdown_) return;
  auto it = pending_writes_.find(msg.request_id);
  if (it == pending_writes_.end()) {
    // Late delivery for an already-resolved write (or a fault-injected
    // duplicate of its final ack).
    availability_.duplicate_acks_ignored++;
    Instruments().duplicate_acks->Increment();
    return;
  }
  std::shared_ptr<PendingWrite> pw = it->second;
  int slot = -1;
  for (size_t i = 0; i < pw->replicas.size(); ++i) {
    if (pw->replicas[i] == msg.src) {
      slot = static_cast<int>(i);
      break;
    }
  }
  if (slot < 0 || pw->states[slot] != ReplicaState::kPending) {
    availability_.duplicate_acks_ignored++;
    Instruments().duplicate_acks->Increment();
    return;
  }
  if (msg.status.ok()) {
    pw->states[slot] = ReplicaState::kAcked;
    pw->acks++;
    if (!pw->done && pw->acks >= pw->required) {
      FinalizeLocked(msg.request_id, pw.get(), /*met=*/true, Status::OK());
    }
  } else {
    Node* node = nodes_[msg.src].get();
    int max_attempts = std::max(1, options_.retry_policy.max_attempts);
    if (IsRetryable(msg.status) && !node->is_down() &&
        pw->attempts[slot] < max_attempts) {
      Instruments().retry_attempts->Increment();
      ArmTimerLocked(
          TimerKind::kResend,
          Clock::MonotonicMicros() +
              RetryBackoffMicros(pw->attempts[slot]),
          msg.request_id, slot);
    } else {
      if (pw->error.ok()) pw->error = msg.status;
      HintReplicaSlotLocked(msg.request_id, pw.get(), slot);
    }
  }
  bool all_resolved = true;
  for (ReplicaState s : pw->states) {
    if (s == ReplicaState::kPending) all_resolved = false;
  }
  if (pw->done && all_resolved) {
    pending_writes_.erase(msg.request_id);
    writes_cv_.notify_all();
  }
}

void Cluster::HandleHintServiceMessage(Message msg) {
  if (msg.kind != MessageKind::kHintAck) return;
  {
    std::lock_guard<std::mutex> lock(hint_ack_mu_);
    hint_acks_[msg.request_id] = std::move(msg.status);
  }
  hint_ack_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Quorum write machinery
// ---------------------------------------------------------------------------

uint64_t Cluster::RetryBackoffMicros(int completed_attempts) {
  return BackoffWithJitter(options_.retry_policy, completed_attempts,
                           jitter_state_);
}

void Cluster::ArmTimerLocked(TimerKind kind, uint64_t due_micros,
                             uint64_t request_id, int replica_slot) {
  timers_.push(
      TimerEvent{due_micros, next_timer_seq_++, kind, request_id,
                 replica_slot});
  timer_cv_.notify_one();
}

void Cluster::SendWriteRequestLocked(uint64_t request_id, PendingWrite* pw,
                                     int slot) {
  pw->attempts[slot]++;
  Message msg;
  msg.kind = MessageKind::kWriteRequest;
  msg.request_id = request_id;
  msg.src = kCoordinatorEndpoint;
  msg.dst = pw->replicas[slot];
  msg.as_primary = (slot == pw->primary_slot);
  msg.kvps = pw->kvps;
  msg.bytes = pw->bytes;
  msg.trace_id = pw->ctx.trace_id;
  msg.parent_span_id = pw->ctx.span_id;
  msg.rows = pw->rows;
  // A false return means the channel is shutting down; the deadline timer
  // resolves the write either way.
  channel_->Send(std::move(msg));
}

void Cluster::HintReplicaSlotLocked(uint64_t request_id, PendingWrite* pw,
                                    int slot) {
  pw->states[slot] = ReplicaState::kHinted;
  ForceRecordHint(pw->replicas[slot], *pw->rows);
  int hinted = 0;
  for (ReplicaState s : pw->states) {
    if (s == ReplicaState::kHinted) hinted++;
  }
  // Hinted replicas leave the quorum denominator: their rows are durable in
  // the hint buffer (or covered by the re-copy that an overflow forces), so
  // the write only needs a quorum of the remainder.
  pw->required = std::max(
      1, std::min(write_quorum(),
                  static_cast<int>(pw->replicas.size()) - hinted));
  if (pw->done) return;
  if (pw->acks >= pw->required) {
    FinalizeLocked(request_id, pw, /*met=*/true, Status::OK());
    return;
  }
  bool any_pending = false;
  for (ReplicaState s : pw->states) {
    if (s == ReplicaState::kPending) any_pending = true;
  }
  if (!any_pending) {
    Status error = pw->error.ok()
                       ? Status::Unavailable("no replica could apply the "
                                             "write (all hinted)")
                       : Status::Unavailable("quorum lost: " +
                                             pw->error.ToString());
    FinalizeLocked(request_id, pw, /*met=*/false, std::move(error));
  }
}

void Cluster::FinalizeLocked(uint64_t request_id, PendingWrite* pw, bool met,
                             Status error) {
  pw->done = true;
  pw->quorum_met = met;
  // Attempted and its outcome move together so the FDR invariant
  // `attempted == quorum_met + unavailable` holds at any snapshot.
  availability_.writes_attempted++;
  if (met) {
    availability_.writes_quorum_met++;
    Instruments().quorum_met_writes->Increment();
    if (obs::TraceBuffer::Enabled() && pw->start_wall_micros != 0) {
      // Wall-clock timestamps so the span shares the storage/driver spans'
      // timeline (monotonic start_micros keeps driving the timers); the
      // pending write's context links the ack into the op's flow.
      obs::TraceBuffer::Record(
          "cluster.quorum_ack", pw->start_wall_micros,
          clock()->NowMicros() - pw->start_wall_micros, pw->ctx, "acks",
          static_cast<uint64_t>(pw->acks));
    }
    bool any_pending = false;
    int hinted = 0;
    for (ReplicaState s : pw->states) {
      if (s == ReplicaState::kPending) any_pending = true;
      if (s == ReplicaState::kHinted) hinted++;
    }
    if (hinted > 0) Instruments().degraded_batches->Increment();
    if (any_pending && !pw->straggler_timer_armed) {
      pw->straggler_timer_armed = true;
      ArmTimerLocked(TimerKind::kStraggler,
                     Clock::MonotonicMicros() +
                         options_.straggler_timeout_micros,
                     request_id);
    }
  } else {
    availability_.writes_unavailable++;
    pw->error = std::move(error);
    Instruments().unavailable_writes->Increment();
  }
  writes_cv_.notify_all();
}

std::shared_ptr<Cluster::PendingWrite> Cluster::QuorumWriteStart(
    const std::vector<int>& replicas, std::shared_ptr<const Rows> rows,
    uint64_t kvps, uint64_t bytes) {
  auto pw = std::make_shared<PendingWrite>();
  pw->replicas = replicas;
  pw->states.assign(replicas.size(), ReplicaState::kPending);
  pw->attempts.assign(replicas.size(), 0);
  pw->rows = std::move(rows);
  pw->kvps = kvps;
  pw->bytes = bytes;
  pw->start_micros = Clock::MonotonicMicros();
  if (obs::TraceBuffer::Enabled()) {
    pw->start_wall_micros = clock()->NowMicros();
    const obs::TraceContext& caller = obs::CurrentTraceContext();
    if (caller.valid()) pw->ctx = caller.Child();
  }
  uint64_t deadline_micros =
      options_.retry_policy.op_deadline_micros > 0
          ? options_.retry_policy.op_deadline_micros
          : options_.write_timeout_micros;

  std::lock_guard<std::mutex> lock(writes_mu_);
  if (replication_shutdown_) {
    pw->done = true;
    pw->error = Status::Aborted("cluster shutting down");
    return pw;
  }
  uint64_t request_id = next_request_id_++;
  int hinted = 0;
  for (size_t slot = 0; slot < pw->replicas.size(); ++slot) {
    Node* node = nodes_[pw->replicas[slot]].get();
    if (node->is_down() && TryRecordHint(pw->replicas[slot], *pw->rows)) {
      pw->states[slot] = ReplicaState::kHinted;
      hinted++;
    }
  }
  pw->required = std::max(
      1, std::min(write_quorum(),
                  static_cast<int>(pw->replicas.size()) - hinted));
  if (hinted == static_cast<int>(pw->replicas.size())) {
    // Nothing to send: every replica is down. Hints preserve the rows, but
    // nothing acked, so the write cannot be reported durable.
    FinalizeLocked(request_id, pw.get(), /*met=*/false,
                   Status::Unavailable("all replicas down for shard"));
    return pw;
  }
  pending_writes_[request_id] = pw;
  pw->request_id = request_id;
  for (size_t slot = 0; slot < pw->replicas.size(); ++slot) {
    if (pw->states[slot] != ReplicaState::kPending) continue;
    if (pw->primary_slot < 0) pw->primary_slot = static_cast<int>(slot);
    SendWriteRequestLocked(request_id, pw.get(), static_cast<int>(slot));
  }
  ArmTimerLocked(TimerKind::kDeadline, pw->start_micros + deadline_micros,
                 request_id);
  return pw;
}

Status Cluster::QuorumWriteWait(const std::shared_ptr<PendingWrite>& pw) {
  std::unique_lock<std::mutex> lock(writes_mu_);
  writes_cv_.wait(lock, [&] { return pw->done; });
  if (pw->quorum_met) return Status::OK();
  return pw->error.ok() ? Status::Unavailable("write failed") : pw->error;
}

void Cluster::TimerLoop() {
  std::unique_lock<std::mutex> lock(writes_mu_);
  for (;;) {
    if (replication_shutdown_) return;
    if (timers_.empty()) {
      timer_cv_.wait(lock, [this] {
        return replication_shutdown_ || !timers_.empty();
      });
      continue;
    }
    uint64_t now = Clock::MonotonicMicros();
    if (timers_.top().due_micros > now) {
      timer_cv_.wait_for(
          lock, std::chrono::microseconds(timers_.top().due_micros - now));
      continue;
    }
    TimerEvent ev = timers_.top();
    timers_.pop();
    auto it = pending_writes_.find(ev.request_id);
    if (it == pending_writes_.end()) continue;
    std::shared_ptr<PendingWrite> pw = it->second;
    switch (ev.kind) {
      case TimerKind::kResend: {
        if (pw->states[ev.replica_slot] != ReplicaState::kPending) break;
        Node* node = nodes_[pw->replicas[ev.replica_slot]].get();
        if (node->is_down()) {
          HintReplicaSlotLocked(ev.request_id, pw.get(), ev.replica_slot);
        } else {
          SendWriteRequestLocked(ev.request_id, pw.get(), ev.replica_slot);
        }
        break;
      }
      case TimerKind::kStraggler:
      case TimerKind::kDeadline: {
        if (!pw->done) {
          // Only a deadline can fire on an unresolved write.
          availability_.deadline_exceeded++;
          Instruments().deadline_exceeded->Increment();
          FinalizeLocked(ev.request_id, pw.get(), /*met=*/false,
                         Status::Unavailable(
                             "write deadline exceeded before quorum (" +
                             std::to_string(pw->acks) + "/" +
                             std::to_string(pw->required) + " acks)"));
        } else {
          // Quorum met but laggards remain: absorb them into hinted
          // handoff so the write can retire.
          for (size_t slot = 0; slot < pw->states.size(); ++slot) {
            if (pw->states[slot] != ReplicaState::kPending) continue;
            pw->states[slot] = ReplicaState::kHinted;
            ForceRecordHint(pw->replicas[slot], *pw->rows);
            availability_.straggler_hinted_kvps += pw->kvps;
            Instruments().straggler_hint_kvps->Add(pw->kvps);
          }
        }
        pending_writes_.erase(ev.request_id);
        writes_cv_.notify_all();
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hinted handoff
// ---------------------------------------------------------------------------

void Cluster::UpdateHintDepthGaugeLocked() {
  int64_t total = 0;
  for (size_t i = 0; i < hints_.size(); ++i) {
    int64_t depth = static_cast<int64_t>(hints_[i].rows.size());
    total += depth;
    node_hint_depth_[i]->Set(depth);
  }
  Instruments().hint_queue_depth->Set(total);
}

void Cluster::RecordHintLocked(int node_id, const Rows& rows) {
  nodes_[node_id]->CountSkippedReplicaWrites(rows.size());
  fault_stats_.hinted_kvps += rows.size();
  Instruments().hints_recorded_kvps->Add(rows.size());
  HintBuffer& buf = hints_[node_id];
  if (buf.overflowed) return;  // already due for a full re-copy
  if (buf.rows.size() + rows.size() > options_.max_hints_per_node) {
    buf.overflowed = true;
    buf.rows.clear();
    buf.rows.shrink_to_fit();
    fault_stats_.hint_overflows++;
    UpdateHintDepthGaugeLocked();
    return;
  }
  buf.rows.insert(buf.rows.end(), rows.begin(), rows.end());
  UpdateHintDepthGaugeLocked();
}

bool Cluster::TryRecordHint(int node_id, const Rows& rows) {
  Node* node = nodes_[node_id].get();
  std::lock_guard<std::mutex> lock(hints_mu_);
  if (!node->is_down()) return false;  // lost a race with RestartNode
  RecordHintLocked(node_id, rows);
  return true;
}

void Cluster::ForceRecordHint(int node_id, const Rows& rows) {
  std::lock_guard<std::mutex> lock(hints_mu_);
  RecordHintLocked(node_id, rows);
}

Status Cluster::SendHintBatchAndWait(int node_id,
                                     std::shared_ptr<const Rows> rows) {
  uint64_t replay_id;
  {
    std::lock_guard<std::mutex> lock(hint_ack_mu_);
    if (hint_shutdown_) return Status::Aborted("cluster shutting down");
    replay_id = next_hint_id_++;
  }
  obs::TraceSpan replay_span("cluster.hint_replay", nullptr, clock());
  replay_span.SetArg("kvps", rows->size());
  Message msg;
  msg.kind = MessageKind::kHintReplay;
  msg.request_id = replay_id;
  msg.src = kHintServiceEndpoint;
  msg.dst = node_id;
  msg.kvps = rows->size();
  if (obs::TraceBuffer::Enabled()) {
    // Hint replays are background ops with no enclosing request: mint a
    // fresh trace so the replay and the replica's apply link as one flow.
    replay_span.SetContext(obs::TraceContext::Mint());
    msg.trace_id = replay_span.context().trace_id;
    msg.parent_span_id = replay_span.context().span_id;
  }
  msg.rows = std::move(rows);
  if (!channel_->Send(std::move(msg))) {
    replay_span.Cancel();
    return Status::IOError("replication channel closed");
  }
  std::unique_lock<std::mutex> lock(hint_ack_mu_);
  bool acked = hint_ack_cv_.wait_for(
      lock, std::chrono::microseconds(options_.write_timeout_micros),
      [&] { return hint_shutdown_ || hint_acks_.count(replay_id) > 0; });
  if (hint_shutdown_) {
    replay_span.Cancel();
    return Status::Aborted("cluster shutting down");
  }
  if (!acked) {
    replay_span.Cancel();
    return Status::TimedOut("hint replay to node " +
                            std::to_string(node_id) + " timed out");
  }
  Status s = std::move(hint_acks_[replay_id]);
  hint_acks_.erase(replay_id);
  if (!s.ok()) replay_span.Cancel();
  return s;
}

void Cluster::HintDrainLoop() {
  std::unique_lock<std::mutex> lock(hints_mu_);
  while (!drain_shutdown_) {
    hints_cv_.wait_for(
        lock,
        std::chrono::microseconds(options_.hint_drain_interval_micros),
        [this] { return drain_shutdown_; });
    if (drain_shutdown_) return;
    for (int id = 0; id < static_cast<int>(hints_.size()); ++id) {
      Node* node = nodes_[id].get();
      // Down nodes drain at RestartNode; overflowed buffers wait for the
      // full re-copy there too.
      if (node->is_down() || !node->is_running()) continue;
      HintBuffer& buf = hints_[id];
      if (buf.overflowed || buf.rows.empty()) continue;
      auto rows = std::make_shared<Rows>(std::move(buf.rows));
      buf.rows.clear();
      hints_in_flight_++;
      UpdateHintDepthGaugeLocked();
      lock.unlock();
      Status s = SendHintBatchAndWait(id, rows);
      lock.lock();
      hints_in_flight_--;
      if (s.ok()) {
        fault_stats_.hint_replayed_kvps += rows->size();
        Instruments().hints_replayed_kvps->Add(rows->size());
      } else if (!hints_[id].overflowed) {
        // Put the rows back in front of anything hinted meanwhile, keeping
        // replay order; the next tick retries. (An overflow meanwhile means
        // a re-copy will cover them.)
        hints_[id].rows.insert(hints_[id].rows.begin(), rows->begin(),
                               rows->end());
        UpdateHintDepthGaugeLocked();
      }
      if (drain_shutdown_) return;
    }
    // Wake WaitReplicationIdle waiters so their predicate re-checks at
    // least once per tick (liveness transitions don't signal otherwise).
    hints_cv_.notify_all();
  }
}

Status Cluster::RestartNode(int id) {
  if (id < 0 || id >= num_nodes()) {
    return Status::InvalidArgument("no such node: " + std::to_string(id));
  }
  Node* node = nodes_[id].get();
  IOTDB_RETURN_NOT_OK(node->Restart());

  // A crashed node lost acknowledged-but-unsynced writes, so its own
  // recovery is not enough; an overflowed hint buffer lost the replay log.
  // Either way only a full re-copy from live replicas reconverges — the
  // hints are then redundant (live replicas already hold those writes).
  bool recopy = node->crashed() || node->under_repair();
  {
    std::lock_guard<std::mutex> lock(hints_mu_);
    if (hints_[id].overflowed) recopy = true;
  }
  if (recopy) {
    // Quorum acks let a write succeed while a *live* replica is still only
    // hinted, so a copy source's store can be missing rows it is the
    // designated copier for. Wait for live-node hints to drain first so
    // every source is complete; rows hinted to this node itself are
    // covered by the post-copy drain rounds below.
    {
      std::unique_lock<std::mutex> lock(hints_mu_);
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::microseconds(kReplicationIdleMicros);
      bool drained = hints_cv_.wait_until(lock, deadline, [this, id] {
        if (drain_shutdown_) return true;
        if (hints_in_flight_ > 0) return false;
        for (size_t i = 0; i < hints_.size(); ++i) {
          if (static_cast<int>(i) == id) continue;
          Node* other = nodes_[i].get();
          if (other->is_down() || !other->is_running()) continue;
          if (hints_[i].overflowed) continue;
          if (!hints_[i].rows.empty()) return false;
        }
        return true;
      });
      if (!drained) {
        return Status::TimedOut("re-copy sources still draining hints");
      }
      hints_[id].rows.clear();
      hints_[id].overflowed = false;
      UpdateHintDepthGaugeLocked();
    }
    IOTDB_RETURN_NOT_OK(RecopyShards(id));
    if (node->under_repair()) {
      node->ClearUnderRepair();
      {
        std::lock_guard<std::mutex> lock(repair_mu_);
        pending_repair_.erase(id);
      }
      std::lock_guard<std::mutex> lock(hints_mu_);
      fault_stats_.corruption_repairs++;
      Instruments().corruption_repairs->Increment();
    }
  }

  // Drain hints in rounds over the channel; writers may keep hinting while
  // a round replays (the node is still marked down, which ApplyHintBatch
  // permits). The round that observes an empty buffer flips the node up
  // while still holding hints_mu_, so no writer can record a hint that
  // would never be replayed (TryRecordHint re-checks is_down under the
  // same mutex).
  for (;;) {
    std::shared_ptr<Rows> pending;
    {
      std::lock_guard<std::mutex> lock(hints_mu_);
      if (hints_[id].rows.empty()) {
        node->SetDown(false);
        node->ClearCrashed();
        fault_stats_.node_restarts++;
        return Status::OK();
      }
      pending = std::make_shared<Rows>(std::move(hints_[id].rows));
      hints_[id].rows.clear();
      UpdateHintDepthGaugeLocked();
    }
    Status s = SendHintBatchAndWait(id, pending);
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(hints_mu_);
      hints_[id].rows.insert(hints_[id].rows.begin(), pending->begin(),
                             pending->end());
      UpdateHintDepthGaugeLocked();
      return s;
    }
    std::lock_guard<std::mutex> lock(hints_mu_);
    fault_stats_.hint_replayed_kvps += pending->size();
    Instruments().hints_replayed_kvps->Add(pending->size());
  }
}

Status Cluster::WaitReplicationIdle(uint64_t timeout_micros) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(timeout_micros);
  {
    std::unique_lock<std::mutex> lock(writes_mu_);
    bool idle = writes_cv_.wait_until(lock, deadline, [this] {
      return replication_shutdown_ || pending_writes_.empty();
    });
    if (!idle) {
      return Status::TimedOut("quorum writes still in flight");
    }
  }
  {
    std::unique_lock<std::mutex> lock(hints_mu_);
    auto drained = [this] {
      if (drain_shutdown_) return true;
      if (hints_in_flight_ > 0) return false;
      for (size_t i = 0; i < hints_.size(); ++i) {
        Node* node = nodes_[i].get();
        if (node->is_down() || !node->is_running()) continue;
        if (hints_[i].overflowed) continue;
        if (!hints_[i].rows.empty()) return false;
      }
      return true;
    };
    if (!hints_cv_.wait_until(lock, deadline, drained)) {
      return Status::TimedOut("hint buffers still draining");
    }
  }
  return Status::OK();
}

Status Cluster::RecopyShards(int target_id) {
  obs::TraceSpan recopy_span("cluster.shard_recopy", nullptr, clock());
  uint64_t total_copied = 0;
  Node* target = nodes_[target_id].get();
  for (auto& source : nodes_) {
    if (source->id() == target_id) continue;
    if (source->is_down() || !source->is_running()) continue;
    if (source->under_repair()) continue;  // untrustworthy copy source
    auto iter = source->store()->NewIterator(storage::ReadOptions());
    storage::WriteBatch batch;
    size_t batch_rows = 0;
    uint64_t copied = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      // Copy every key the target replicates from every live source.
      // Electing a single copier per key would halve the write volume, but
      // a quorum-acked row can be missing from any one source's snapshot
      // (its apply may still be hinted or queued); replica values are
      // identical, so redundant puts are safe and close that gap.
      bool target_holds = false;
      for (int r : ReplicaNodesFor(iter->key())) {
        if (r == target_id) {
          target_holds = true;
          break;
        }
      }
      if (!target_holds) continue;
      batch.Put(iter->key(), iter->value());
      if (++batch_rows >= kRecopyBatchRows) {
        IOTDB_RETURN_NOT_OK(
            target->store()->Write(storage::WriteOptions(), &batch));
        copied += batch_rows;
        batch.Clear();
        batch_rows = 0;
      }
    }
    IOTDB_RETURN_NOT_OK(iter->status());
    if (batch_rows > 0) {
      IOTDB_RETURN_NOT_OK(
          target->store()->Write(storage::WriteOptions(), &batch));
      copied += batch_rows;
    }
    total_copied += copied;
    std::lock_guard<std::mutex> lock(hints_mu_);
    fault_stats_.recopied_kvps += copied;
  }
  recopy_span.SetArg("kvps", total_copied);
  return Status::OK();
}

FaultRecoveryStats Cluster::GetFaultRecoveryStats() const {
  FaultRecoveryStats stats;
  {
    std::lock_guard<std::mutex> lock(hints_mu_);
    stats = fault_stats_;
  }
  std::lock_guard<std::mutex> lock(repair_mu_);
  stats.corrupt_files_quarantined = corrupt_files_quarantined_;
  return stats;
}

AvailabilityStats Cluster::GetAvailabilityStats() const {
  std::lock_guard<std::mutex> lock(writes_mu_);
  return availability_;
}

NodeStats Cluster::GetAggregateStats() const {
  NodeStats total;
  for (const auto& node : nodes_) {
    NodeStats s = node->GetStats();
    total.writes += s.writes;
    total.primary_writes += s.primary_writes;
    total.reads += s.reads;
    total.scans += s.scans;
    total.scan_rows_read += s.scan_rows_read;
    total.bytes_written += s.bytes_written;
    total.skipped_replica_writes += s.skipped_replica_writes;
  }
  return total;
}

std::string Cluster::Describe() {
  std::string out;
  char line[320];
  NodeStats total = GetAggregateStats();
  snprintf(line, sizeof(line),
           "cluster: %d nodes, replication %d (effective %d, quorum %d), "
           "imbalance CoV %.3f\n",
           num_nodes(), options_.replication_factor,
           effective_replication(), write_quorum(), PrimaryLoadImbalance());
  out += line;
  for (const auto& node : nodes_) {
    NodeStats stats = node->GetStats();
    const char* state = node->is_down()
                            ? (node->is_running() ? "DOWN" : "CRASHED")
                            : "up";
    if (!node->is_running()) {
      snprintf(line, sizeof(line),
               "  node %d [%s]: %llu primary kvps, store closed, "
               "%llu skipped replica kvps\n",
               node->id(), state,
               static_cast<unsigned long long>(stats.primary_writes),
               static_cast<unsigned long long>(
                   stats.skipped_replica_writes));
      out += line;
      continue;
    }
    storage::KVStoreStats engine = node->store()->GetStats();
    double share = total.primary_writes == 0
                       ? 0
                       : 100.0 * stats.primary_writes /
                             total.primary_writes;
    int total_files = 0;
    for (int level = 0; level < storage::kNumLevels; ++level) {
      total_files += engine.num_files[level];
    }
    snprintf(line, sizeof(line),
             "  node %d [%s]: %llu primary kvps (%.1f%%), %llu scans, "
             "L0=%d files=%d flushes=%llu compactions=%llu "
             "stall=%.1fms skipped=%llu\n",
             node->id(), state,
             static_cast<unsigned long long>(stats.primary_writes), share,
             static_cast<unsigned long long>(stats.scans),
             engine.num_files[0], total_files,
             static_cast<unsigned long long>(engine.memtable_flushes),
             static_cast<unsigned long long>(engine.compactions),
             engine.write_stall_micros / 1000.0,
             static_cast<unsigned long long>(stats.skipped_replica_writes));
    out += line;
  }
  AvailabilityStats avail = GetAvailabilityStats();
  if (avail.writes_attempted > 0) {
    snprintf(line, sizeof(line),
             "  availability: %llu writes (%llu quorum-met, %llu "
             "unavailable), %llu straggler-hinted kvps, %llu deadline "
             "exceeded\n",
             static_cast<unsigned long long>(avail.writes_attempted),
             static_cast<unsigned long long>(avail.writes_quorum_met),
             static_cast<unsigned long long>(avail.writes_unavailable),
             static_cast<unsigned long long>(avail.straggler_hinted_kvps),
             static_cast<unsigned long long>(avail.deadline_exceeded));
    out += line;
  }
  FaultRecoveryStats faults = GetFaultRecoveryStats();
  if (faults.node_crashes + faults.node_restarts + faults.hinted_kvps +
          faults.hint_overflows + faults.recopied_kvps >
      0) {
    snprintf(line, sizeof(line),
             "  faults: %llu crashes, %llu restarts, %llu hinted kvps "
             "(%llu replayed, %llu overflows), %llu re-copied kvps\n",
             static_cast<unsigned long long>(faults.node_crashes),
             static_cast<unsigned long long>(faults.node_restarts),
             static_cast<unsigned long long>(faults.hinted_kvps),
             static_cast<unsigned long long>(faults.hint_replayed_kvps),
             static_cast<unsigned long long>(faults.hint_overflows),
             static_cast<unsigned long long>(faults.recopied_kvps));
    out += line;
  }
  if (faults.corrupt_files_quarantined + faults.read_repairs +
          faults.corruption_repairs >
      0) {
    snprintf(line, sizeof(line),
             "  integrity: %llu corrupt files quarantined, %llu reads "
             "re-served from healthy replicas, %llu shard re-copies\n",
             static_cast<unsigned long long>(
                 faults.corrupt_files_quarantined),
             static_cast<unsigned long long>(faults.read_repairs),
             static_cast<unsigned long long>(faults.corruption_repairs));
    out += line;
  }
  return out;
}

double Cluster::PrimaryLoadImbalance() const {
  double sum = 0, sum_squares = 0;
  int live = 0;
  for (const auto& node : nodes_) {
    if (node->is_down()) continue;
    double writes = static_cast<double>(node->GetStats().primary_writes);
    sum += writes;
    sum_squares += writes * writes;
    live++;
  }
  if (live == 0 || sum == 0) return 0;
  double mean = sum / live;
  double variance = sum_squares / live - mean * mean;
  return variance <= 0 ? 0 : std::sqrt(variance) / mean;
}

Status Cluster::PurgeAll() {
  // Quiesce first: an in-flight quorum write or hint replay landing after
  // the wipe would resurrect purged rows.
  IOTDB_RETURN_NOT_OK(WaitReplicationIdle());
  for (auto& node : nodes_) {
    IOTDB_RETURN_NOT_OK(node->Purge());
  }
  std::lock_guard<std::mutex> lock(hints_mu_);
  for (auto& buf : hints_) {
    buf.rows.clear();
    buf.overflowed = false;
  }
  UpdateHintDepthGaugeLocked();
  std::lock_guard<std::mutex> repair_lock(repair_mu_);
  pending_repair_.clear();  // Purge rebuilt every store from scratch
  return Status::OK();
}

Status Cluster::FlushAll() {
  IOTDB_RETURN_NOT_OK(WaitReplicationIdle());
  for (auto& node : nodes_) {
    if (!node->is_running()) continue;  // crashed; nothing to flush
    IOTDB_RETURN_NOT_OK(node->store()->FlushMemTable());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

uint64_t Client::BackoffMicros(int completed_attempts) {
  return BackoffWithJitter(cluster_->options().retry_policy,
                           completed_attempts, jitter_state_);
}

Status Client::RetryOp(const std::function<Status()>& op, Node* node) {
  const RetryPolicy& policy = cluster_->options().retry_policy;
  // Deadline arithmetic runs on the monotonic clock: a wall-clock step
  // (NTP, suspend) must not stretch or collapse the retry budget.
  const uint64_t start = Clock::MonotonicMicros();
  const int max_attempts = std::max(1, policy.max_attempts);
  Status s;
  for (int attempt = 1;; ++attempt) {
    s = op();
    if (s.ok() || !IsRetryable(s)) return s;
    // A down node is not a transient fault: the caller fails over (reads)
    // or records a hint (writes).
    if (node != nullptr && node->is_down()) return s;
    if (attempt >= max_attempts) return s;
    uint64_t backoff = BackoffMicros(attempt);
    if (policy.op_deadline_micros > 0 &&
        Clock::MonotonicMicros() - start + backoff >=
            policy.op_deadline_micros) {
      Instruments().deadline_exceeded->Increment();
      return Status::TimedOut("op deadline exceeded after " +
                              std::to_string(attempt) +
                              " attempts: " + s.message());
    }
    Instruments().retry_attempts->Increment();
    obs::AddStageMicros(obs::Stage::kRetryBackoff, backoff);
    cluster_->clock()->SleepMicros(backoff);
  }
}

Status Client::Put(const Slice& key, const Slice& value) {
  return PutBatch({{key.ToString(), value.ToString()}});
}

Status Client::PutBatch(
    const std::vector<std::pair<std::string, std::string>>& kvps) {
  // Group rows by primary node; each group replicates as one batch. The
  // groups are pipelined: every group's fan-out is launched before any
  // quorum is awaited, so one slow shard does not serialise the flush.
  struct Group {
    std::vector<std::pair<std::string, std::string>> rows;
    uint64_t bytes = 0;
  };
  std::unordered_map<int, Group> groups;
  uint64_t total_kvps = 0;
  for (const auto& [key, value] : kvps) {
    Group& g = groups[cluster_->PrimaryNodeFor(key)];
    g.rows.emplace_back(key, value);
    g.bytes += key.size() + value.size();
    total_kvps++;
  }
  obs::TraceSpan fanout_span("cluster.fanout", Instruments().fanout_micros,
                             cluster_->clock());
  fanout_span.SetArg("kvps", total_kvps);
  obs::TraceContext fanout_ctx;
  if (obs::TraceBuffer::Enabled()) {
    const obs::TraceContext& caller = obs::CurrentTraceContext();
    if (caller.valid()) {
      fanout_ctx = caller.Child();
      fanout_span.SetContext(fanout_ctx);
    }
  }
  // Every pipelined pending write derives its context from the fan-out
  // span, so one driver batch traces as driver → fanout → per-group quorum
  // writes. The send/wait boundary splits the attribution stages.
  obs::ScopedTraceContext ctx_scope(fanout_ctx);
  obs::OpBreadcrumb* bc = obs::CurrentBreadcrumb();
  const uint64_t send_t0 =
      bc != nullptr ? cluster_->clock()->NowMicros() : 0;
  std::vector<std::shared_ptr<Cluster::PendingWrite>> in_flight;
  in_flight.reserve(groups.size());
  for (auto& [primary, group] : groups) {
    uint64_t group_kvps = group.rows.size();
    in_flight.push_back(cluster_->QuorumWriteStart(
        cluster_->ReplicaNodesForPrimary(primary),
        std::make_shared<const Cluster::Rows>(std::move(group.rows)),
        group_kvps, group.bytes));
  }
  uint64_t sent = 0;
  if (bc != nullptr) {
    sent = cluster_->clock()->NowMicros();
    obs::AddStageMicros(obs::Stage::kFanoutSend, sent - send_t0);
  }
  Status first_error;
  for (auto& pw : in_flight) {
    Status s = cluster_->QuorumWriteWait(pw);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  if (bc != nullptr) {
    obs::AddStageMicros(obs::Stage::kQuorumWait,
                        cluster_->clock()->NowMicros() - sent);
  }
  if (!first_error.ok()) fanout_span.Cancel();
  return first_error;
}

Result<std::string> Client::Get(const Slice& key) {
  Status last_error = Status::IOError("no replicas available");
  bool corrupt_seen = false;
  bool live_error_seen = false;
  int absent_live = 0;   // reachable replicas that returned NotFound
  int absent_down = 0;   // down replicas (their misses are hint-covered)
  for (int node_id : cluster_->ReplicaNodesFor(key)) {
    Node* node = cluster_->node(node_id);
    // A partitioned replica can neither serve a value nor vouch for
    // absence; it simply abstains.
    if (!cluster_->IsNodeReachable(node_id)) continue;
    if (node->is_down()) {
      absent_down++;
      continue;
    }
    std::string value;
    Status s = RetryOp(
        [&]() {
          auto result = node->Get(key);
          if (result.ok()) value = std::move(result).MoveValueUnsafe();
          return result.status();
        },
        node);
    if (s.ok()) {
      if (corrupt_seen) cluster_->RecordReadRepair();
      return value;
    }
    if (s.IsCorruption()) {
      // This replica quarantined data (or is fenced while under repair):
      // neither a value nor NotFound from it can be trusted. Fail over.
      corrupt_seen = true;
      last_error = s;
      continue;
    }
    if (s.IsNotFound()) {
      absent_live++;
      last_error = s;
      continue;
    }
    live_error_seen = true;
    last_error = s;
  }
  // Absence needs confirmation by a read quorum R = eff - W + 1: any
  // quorum-acked write intersects those R replicas, so one replica's miss
  // (say, a node still catching up after restart) can no longer masquerade
  // as a deleted/lost key. Down replicas count toward confirmation — their
  // missed writes live in hint buffers or are covered by the rejoin
  // re-copy — but at least one live replica must actually report the miss.
  int confirm_needed =
      cluster_->effective_replication() - cluster_->write_quorum() + 1;
  if (absent_live >= 1 && absent_live + absent_down >= confirm_needed) {
    if (corrupt_seen) cluster_->RecordReadRepair();
    return Status::NotFound("key absent (confirmed by " +
                            std::to_string(absent_live + absent_down) +
                            " replicas)");
  }
  if (absent_live >= 1 && !live_error_seen && !corrupt_seen) {
    return Status::Unavailable(
        "cannot confirm key absence: too few replicas reachable");
  }
  return last_error;
}

Status Client::MultiGet(const std::vector<std::string>& keys,
                        std::vector<std::optional<std::string>>* out) {
  out->assign(keys.size(), std::nullopt);
  Status first_error;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto result = Get(keys[i]);
    if (result.ok()) {
      (*out)[i] = std::move(result).MoveValueUnsafe();
    } else if (!result.status().IsNotFound() && first_error.ok()) {
      first_error = result.status();
    }
  }
  return first_error;
}

Status Client::Scan(const Slice& shard_key, const Slice& start,
                    const Slice& end_exclusive, size_t limit,
                    RowSink* sink) {
  Status last_error = Status::IOError("no replicas available");
  bool corrupt_seen = false;
  for (int node_id : cluster_->ReplicaNodesForShardKey(shard_key)) {
    Node* node = cluster_->node(node_id);
    if (node->is_down()) continue;
    if (!cluster_->IsNodeReachable(node_id)) continue;
    Status s = RetryOp(
        [&]() {
          // Drop the partial rows of a failed attempt, this replica's or
          // the last one's.
          sink->Clear();
          return node->Scan(start, end_exclusive, limit, sink);
        },
        node);
    if (s.ok()) {
      if (corrupt_seen) cluster_->RecordReadRepair();
      return s;
    }
    if (s.IsCorruption()) corrupt_seen = true;
    last_error = s;
  }
  return last_error;
}

}  // namespace cluster
}  // namespace iotdb
