#include "cluster/cluster.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/bloom.h"  // reuse BloomHash as the shard hash

namespace iotdb {
namespace cluster {

namespace {

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
        registry.GetCounter("cluster.read_repair.region_copies"),
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
  // Leaders ship into other nodes' regions from their background threads:
  // close every node before freeing any. Nodes hold stores using
  // fault_env_, so they go first.
  for (auto& node : nodes_) node->Close();
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
  const int n = cluster->options_.num_nodes;
  cluster->hints_.resize(static_cast<size_t>(n));
  cluster->full_install_.assign(static_cast<size_t>(n) * n, false);
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

  auto on_quarantine = [raw](int node_id, int shard, const std::string& path,
                             const Status& cause) {
    raw->OnNodeQuarantine(node_id, shard, path, cause);
  };
  // A node keeps one write buffer across the shards it replicates, as a
  // region server's memstore limit spans its regions; only the led region
  // builds a memtable, so it gets the node's share for one shard.
  storage::Options region_options = cluster->options_.storage_options;
  const int replicas =
      std::max(1, std::min(cluster->options_.replication_factor, n));
  region_options.write_buffer_size =
      std::max<size_t>(1, region_options.write_buffer_size / replicas);
  for (int i = 0; i < n; ++i) {
    cluster->shippers_.push_back(std::make_unique<ShardShipper>(raw, i));
    std::string dir =
        cluster->options_.data_root + "/node" + std::to_string(i);
    IOTDB_ASSIGN_OR_RETURN(
        auto node,
        Node::Start(i, n, region_options, dir,
                    cluster->fault_env_.get(), on_quarantine,
                    cluster->shippers_.back().get()));
    // Number each shard's batches past every sequence its leader holds.
    cluster->next_sequence_.push_back(node->store()->LastSequence() + 1);
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

void Cluster::OnNodeQuarantine(int node_id, int shard,
                               const std::string& path, const Status& cause) {
  // May run on a store background thread with store locks held: only
  // record and enqueue — repair happens in RunPendingRepairs(). repair_mu_
  // is a leaf lock, so this never waits on a thread that could be waiting
  // on those store locks.
  (void)path;
  (void)cause;
  {
    std::lock_guard<std::mutex> lock(repair_mu_);
    corrupt_files_quarantined_++;
    pending_repair_[node_id].insert(shard);
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
  std::vector<int> ids;
  for (const auto& [id, shards] : pending_repair_) ids.push_back(id);
  return ids;
}

Status Cluster::RunPendingRepairs() {
  std::map<int, std::set<int>> pending;
  {
    std::lock_guard<std::mutex> lock(repair_mu_);
    pending.swap(pending_repair_);
  }
  Status first_error;
  for (const auto& [id, shards] : pending) {
    Node* node = nodes_[id].get();
    auto defer = [&] {
      std::lock_guard<std::mutex> lock(repair_mu_);
      pending_repair_[id].insert(shards.begin(), shards.end());
    };
    if (node->is_down() || !node->is_running()) {
      // Defer: the RestartNode path copies a crashed node's regions
      // anyway, and its quarantine flag forces the copy there too.
      defer();
      continue;
    }
    Status s = WaitForCopySources(id);
    for (auto it = shards.begin(); s.ok() && it != shards.end(); ++it) {
      s = CopyRegion(*it, id);
    }
    if (!s.ok()) {
      if (first_error.ok()) first_error = s;
      defer();  // retry on the next pass
      continue;
    }
    {
      // Every affected region is a copy of a healthy replica's; local
      // reads are trustworthy again, unless a region quarantined another
      // file meanwhile: its repair is pending, and the fence stays.
      std::lock_guard<std::mutex> lock(repair_mu_);
      if (pending_repair_.count(id) == 0) node->ClearUnderRepair();
    }
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
    // A crashed node lost unsynced state, so rejoin takes a copy of every
    // region no matter what — hints buffered for it are dead weight, and
    // their queue depth would haunt the timeline for as long as the node
    // stays down. Reuse the overflow path: drop the batches now;
    // `overflowed` keeps TryRecordHint from buffering more and forces the
    // copy.
    hints_[id].batches.clear();
    hints_[id].batches.shrink_to_fit();
    hints_[id].rows = 0;
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
      // The region commits the shared batch at the coordinator's
      // sequence, or drops it when it holds that batch already. The
      // message's trace header becomes the mailbox thread's current
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
        s = node->ApplyRows(msg.shard, *msg.batch, msg.as_primary,
                            msg.bytes);
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
        for (const ShardBatch& batch : *msg.batches) {
          s = node->ApplyHintBatch(batch.shard, *batch.batch);
          if (!s.ok()) break;
        }
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
  msg.shard = pw->shard_batch.shard;
  msg.batch = pw->shard_batch.batch;
  // A false return means the channel is shutting down; the deadline timer
  // resolves the write either way.
  channel_->Send(std::move(msg));
}

void Cluster::HintReplicaSlotLocked(uint64_t request_id, PendingWrite* pw,
                                    int slot) {
  pw->states[slot] = ReplicaState::kHinted;
  ForceRecordHint(pw->replicas[slot], pw->shard_batch);
  int hinted = 0;
  for (ReplicaState s : pw->states) {
    if (s == ReplicaState::kHinted) hinted++;
  }
  // Hinted replicas leave the quorum denominator: their rows are durable in
  // the hint buffer (or covered by the region copy an overflow forces), so
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
    int shard, std::shared_ptr<storage::WriteBatch> batch, uint64_t bytes) {
  auto pw = std::make_shared<PendingWrite>();
  pw->replicas = ReplicaNodesForPrimary(shard);
  pw->states.assign(pw->replicas.size(), ReplicaState::kPending);
  pw->attempts.assign(pw->replicas.size(), 0);
  pw->shard_batch.shard = shard;
  pw->kvps = static_cast<uint64_t>(batch->Count());
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
  // The batch's sequences, in its header: every replica commits it at
  // exactly these. Nothing writes to the batch after this; every send,
  // resend and hint shares it.
  batch->SetSequence(next_sequence_[shard]);
  next_sequence_[shard] += pw->kvps;
  pw->shard_batch.batch = std::move(batch);
  int hinted = 0;
  for (size_t slot = 0; slot < pw->replicas.size(); ++slot) {
    Node* node = nodes_[pw->replicas[slot]].get();
    if (node->is_down() &&
        TryRecordHint(pw->replicas[slot], pw->shard_batch)) {
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
            ForceRecordHint(pw->replicas[slot], pw->shard_batch);
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
    int64_t depth = static_cast<int64_t>(hints_[i].rows);
    total += depth;
    node_hint_depth_[i]->Set(depth);
  }
  Instruments().hint_queue_depth->Set(total);
}

void Cluster::RecordHintLocked(int node_id, const ShardBatch& batch) {
  const uint64_t rows = static_cast<uint64_t>(batch.batch->Count());
  nodes_[node_id]->CountSkippedReplicaWrites(rows);
  fault_stats_.hinted_kvps += rows;
  Instruments().hints_recorded_kvps->Add(rows);
  HintBuffer& buf = hints_[node_id];
  if (buf.overflowed) return;  // already due for a region copy
  if (buf.rows + rows > options_.max_hints_per_node) {
    buf.overflowed = true;
    buf.batches.clear();
    buf.batches.shrink_to_fit();
    buf.rows = 0;
    fault_stats_.hint_overflows++;
    UpdateHintDepthGaugeLocked();
    return;
  }
  // The batch keeps its sequence: the replay commits it there, once.
  buf.batches.push_back(batch);
  buf.rows += rows;
  UpdateHintDepthGaugeLocked();
}

bool Cluster::TryRecordHint(int node_id, const ShardBatch& batch) {
  Node* node = nodes_[node_id].get();
  std::lock_guard<std::mutex> lock(hints_mu_);
  if (!node->is_down()) return false;  // lost a race with RestartNode
  RecordHintLocked(node_id, batch);
  return true;
}

void Cluster::ForceRecordHint(int node_id, const ShardBatch& batch) {
  std::lock_guard<std::mutex> lock(hints_mu_);
  RecordHintLocked(node_id, batch);
}

namespace {

uint64_t RowsIn(const std::vector<ShardBatch>& batches) {
  uint64_t rows = 0;
  for (const ShardBatch& b : batches) {
    rows += static_cast<uint64_t>(b.batch->Count());
  }
  return rows;
}

}  // namespace

Status Cluster::SendHintBatchAndWait(
    int node_id, std::shared_ptr<const std::vector<ShardBatch>> batches) {
  uint64_t replay_id;
  {
    std::lock_guard<std::mutex> lock(hint_ack_mu_);
    if (hint_shutdown_) return Status::Aborted("cluster shutting down");
    replay_id = next_hint_id_++;
  }
  const uint64_t rows = RowsIn(*batches);
  obs::TraceSpan replay_span("cluster.hint_replay", nullptr, clock());
  replay_span.SetArg("kvps", rows);
  Message msg;
  msg.kind = MessageKind::kHintReplay;
  msg.request_id = replay_id;
  msg.src = kHintServiceEndpoint;
  msg.dst = node_id;
  msg.kvps = rows;
  if (obs::TraceBuffer::Enabled()) {
    // Hint replays are background ops with no enclosing request: mint a
    // fresh trace so the replay and the replica's apply link as one flow.
    replay_span.SetContext(obs::TraceContext::Mint());
    msg.trace_id = replay_span.context().trace_id;
    msg.parent_span_id = replay_span.context().span_id;
  }
  msg.batches = std::move(batches);
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
      // region copies there too.
      if (node->is_down() || !node->is_running()) continue;
      HintBuffer& buf = hints_[id];
      if (buf.overflowed || buf.batches.empty()) continue;
      auto batches = std::make_shared<std::vector<ShardBatch>>(
          std::move(buf.batches));
      buf.batches.clear();
      const uint64_t rows = buf.rows;
      buf.rows = 0;
      hints_in_flight_++;
      UpdateHintDepthGaugeLocked();
      lock.unlock();
      Status s = SendHintBatchAndWait(id, batches);
      lock.lock();
      hints_in_flight_--;
      if (s.ok()) {
        fault_stats_.hint_replayed_kvps += rows;
        Instruments().hints_replayed_kvps->Add(rows);
      } else if (!hints_[id].overflowed) {
        // Put the batches back in front of anything hinted meanwhile; the
        // next tick retries, and the ones already applied are dropped as
        // duplicates. (An overflow meanwhile means a region copy will
        // cover them.)
        HintBuffer& back = hints_[id];
        back.batches.insert(back.batches.begin(), batches->begin(),
                            batches->end());
        back.rows += rows;
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
  if (!node->is_running()) {
    IOTDB_RETURN_NOT_OK(node->Restart());
  }

  // A crashed node lost acknowledged-but-unsynced writes, so its own
  // recovery is not enough; an overflowed hint buffer lost the replay log.
  // Either way only a copy of every region from live replicas reconverges
  // — the hints are then redundant (the sources already hold those
  // writes).
  bool recopy = node->crashed() || node->under_repair();
  {
    std::lock_guard<std::mutex> lock(hints_mu_);
    if (hints_[id].overflowed) recopy = true;
  }
  if (recopy) {
    IOTDB_RETURN_NOT_OK(WaitForCopySources(id));
    {
      std::lock_guard<std::mutex> lock(hints_mu_);
      hints_[id].batches.clear();
      hints_[id].rows = 0;
      hints_[id].overflowed = false;
      UpdateHintDepthGaugeLocked();
    }
    for (int shard = 0; shard < num_nodes(); ++shard) {
      const std::vector<int> replicas = ReplicaNodesForPrimary(shard);
      if (std::find(replicas.begin(), replicas.end(), id) == replicas.end()) {
        continue;
      }
      IOTDB_RETURN_NOT_OK(CopyRegion(shard, id));
    }
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
    std::shared_ptr<std::vector<ShardBatch>> pending;
    uint64_t rows = 0;
    {
      std::lock_guard<std::mutex> lock(hints_mu_);
      if (hints_[id].batches.empty()) {
        node->SetDown(false);
        node->ClearCrashed();
        fault_stats_.node_restarts++;
        return Status::OK();
      }
      pending = std::make_shared<std::vector<ShardBatch>>(
          std::move(hints_[id].batches));
      hints_[id].batches.clear();
      rows = hints_[id].rows;
      hints_[id].rows = 0;
      UpdateHintDepthGaugeLocked();
    }
    Status s = SendHintBatchAndWait(id, pending);
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(hints_mu_);
      HintBuffer& back = hints_[id];
      back.batches.insert(back.batches.begin(), pending->begin(),
                          pending->end());
      back.rows += rows;
      UpdateHintDepthGaugeLocked();
      return s;
    }
    std::lock_guard<std::mutex> lock(hints_mu_);
    fault_stats_.hint_replayed_kvps += rows;
    Instruments().hints_replayed_kvps->Add(rows);
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
        if (!hints_[i].batches.empty()) return false;
      }
      return true;
    };
    if (!hints_cv_.wait_until(lock, deadline, drained)) {
      return Status::TimedOut("hint buffers still draining");
    }
  }
  return Status::OK();
}

Status Cluster::WaitForCopySources(int target) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(kReplicationIdleMicros);
  {
    // Quorum acks let a write succeed before every replica applied it: a
    // source may still be applying one the target held. Writes started
    // from here on reach the target itself, or its hints.
    std::unique_lock<std::mutex> lock(writes_mu_);
    const uint64_t cut = next_request_id_;
    bool resolved = writes_cv_.wait_until(lock, deadline, [this, cut] {
      if (replication_shutdown_) return true;
      for (const auto& [id, pw] : pending_writes_) {
        if (id < cut) return false;
      }
      return true;
    });
    if (!resolved) {
      return Status::TimedOut("copy sources still applying quorum writes");
    }
  }
  // A source that is only hinted a batch does not hold it yet either; rows
  // hinted to the target itself are covered by its post-copy drain rounds.
  std::unique_lock<std::mutex> lock(hints_mu_);
  bool drained = hints_cv_.wait_until(lock, deadline, [this, target] {
    if (drain_shutdown_) return true;
    if (hints_in_flight_ > 0) return false;
    for (size_t i = 0; i < hints_.size(); ++i) {
      if (static_cast<int>(i) == target) continue;
      Node* other = nodes_[i].get();
      if (other->is_down() || !other->is_running()) continue;
      if (hints_[i].overflowed) continue;
      if (!hints_[i].batches.empty()) return false;
    }
    return true;
  });
  if (!drained) return Status::TimedOut("copy sources still draining hints");
  return Status::OK();
}

Status Cluster::CopyRegion(int shard, int target) {
  std::lock_guard<std::mutex> copy_lock(copy_mu_);
  Node* source = nullptr;
  for (int r : ReplicaNodesForPrimary(shard)) {
    if (r == target) continue;
    Node* candidate = nodes_[r].get();
    if (candidate->is_down() || !candidate->is_running()) continue;
    if (candidate->under_repair()) continue;  // untrustworthy copy source
    source = candidate;
    break;
  }
  if (source == nullptr) {
    return Status::Unavailable("no healthy live replica of shard " +
                               std::to_string(shard) + " to copy from");
  }
  obs::TraceSpan copy_span("cluster.region_copy", nullptr, clock());
  uint64_t kvps = 0;
  // The copy reopens the region holding files another leader may have
  // written: a copied leader ships every file first, and a copied backup
  // takes its first install whole (KVStore::OpenRegion).
  IOTDB_RETURN_NOT_OK(nodes_[target]->ReplaceRegion(
      shard, [&](const std::string& dir) {
        return source->CheckpointRegion(shard, dir, &kvps);
      }));
  copy_span.SetArg("kvps", kvps);
  std::lock_guard<std::mutex> lock(hints_mu_);
  fault_stats_.recopied_kvps += kvps;
  return Status::OK();
}

uint64_t Cluster::ShipInstall(int shard,
                              const storage::RegionVersion& version) {
  // A leader that quarantined a file still claims every sequence the file
  // held: its version would make each backup drop its healthy copy and
  // trim the log behind it. Nothing ships until the leader's node is
  // repaired; the backups keep their files and logs, and take the next
  // version whole.
  const bool hold = nodes_[shard]->under_repair();
  uint64_t bad_file = 0;
  for (int r : ReplicaNodesForPrimary(shard)) {
    if (r == shard) continue;
    Node* backup = nodes_[r].get();
    const size_t slot = static_cast<size_t>(shard * num_nodes() + r);
    bool full;
    {
      std::lock_guard<std::mutex> lock(ship_mu_);
      full = full_install_[slot];
    }
    Status s;
    if (hold) {
      s = Status::Aborted("leader under repair");
    } else if (backup->is_down() || !IsNodeReachable(r)) {
      s = Status::Unavailable("backup unreachable");
    } else {
      uint64_t bad = 0;
      s = backup->InstallRegion(shard, version, full, &bad);
      if (bad != 0) bad_file = bad;
    }
    // A backup that missed this version gets the whole next one; until
    // then it keeps its log, so it loses nothing.
    std::lock_guard<std::mutex> lock(ship_mu_);
    full_install_[slot] = !s.ok();
  }
  return bad_file;
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
             "re-served from healthy replicas, %llu region repairs\n",
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
  // Close every node first: a leader still shipping its last flush could
  // otherwise install pre-purge files, and the sequences they hold, into a
  // backup already purged, which would then drop the renumbered batches.
  for (auto& node : nodes_) node->Close();
  for (auto& node : nodes_) {
    IOTDB_RETURN_NOT_OK(node->Purge());
  }
  {
    // Every region is empty again: number each shard from the start.
    std::lock_guard<std::mutex> lock(writes_mu_);
    next_sequence_.assign(next_sequence_.size(), 1);
  }
  {
    std::lock_guard<std::mutex> lock(ship_mu_);
    full_install_.assign(full_install_.size(), false);
  }
  std::lock_guard<std::mutex> lock(hints_mu_);
  for (auto& buf : hints_) {
    buf.batches.clear();
    buf.rows = 0;
    buf.overflowed = false;
  }
  UpdateHintDepthGaugeLocked();
  std::lock_guard<std::mutex> repair_lock(repair_mu_);
  pending_repair_.clear();  // Purge rebuilt every region from scratch
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
  // Group rows by primary node; each group replicates as one batch,
  // encoded once, in input order, into a buffer sized before the first Put:
  // every replica logs these bytes. The groups are pipelined: every group's
  // fan-out is launched before any quorum is awaited, so one slow shard
  // does not serialise the flush.
  struct Group {
    uint64_t bytes = 0;    // user bytes: keys plus values
    size_t encoded = 0;    // record bytes in the batch
    std::shared_ptr<storage::WriteBatch> batch;
  };
  std::vector<Group> groups(static_cast<size_t>(cluster_->num_nodes()));
  std::vector<int> shard_of(kvps.size());
  for (size_t i = 0; i < kvps.size(); ++i) {
    const auto& [key, value] = kvps[i];
    shard_of[i] = cluster_->PrimaryNodeFor(key);
    Group& g = groups[shard_of[i]];
    g.bytes += key.size() + value.size();
    g.encoded += storage::WriteBatch::PutSize(key, value);
  }
  for (Group& g : groups) {
    if (g.encoded == 0) continue;
    g.batch = std::make_shared<storage::WriteBatch>();
    g.batch->Reserve(g.encoded);
  }
  for (size_t i = 0; i < kvps.size(); ++i) {
    groups[shard_of[i]].batch->Put(kvps[i].first, kvps[i].second);
  }
  const uint64_t total_kvps = kvps.size();
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
  for (size_t shard = 0; shard < groups.size(); ++shard) {
    Group& group = groups[shard];
    if (group.batch == nullptr) continue;
    in_flight.push_back(cluster_->QuorumWriteStart(
        static_cast<int>(shard), std::move(group.batch), group.bytes));
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
  const int shard = cluster_->PrimaryNodeFor(key);
  for (int node_id : cluster_->ReplicaNodesForPrimary(shard)) {
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
          auto result = node->Get(shard, key);
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
  const std::vector<int> replicas =
      cluster_->ReplicaNodesForShardKey(shard_key);
  const int shard = replicas[0];
  for (int node_id : replicas) {
    Node* node = cluster_->node(node_id);
    if (node->is_down()) continue;
    if (!cluster_->IsNodeReachable(node_id)) continue;
    Status s = RetryOp(
        [&]() {
          // Drop the partial rows of a failed attempt, this replica's or
          // the last one's.
          sink->Clear();
          return node->Scan(shard, start, end_exclusive, limit, sink);
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
