#ifndef IOTDB_CLUSTER_CLUSTER_H_
#define IOTDB_CLUSTER_CLUSTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/channel.h"
#include "cluster/fault_channel.h"
#include "cluster/node.h"
#include "cluster/options.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/region.h"

namespace iotdb {
namespace cluster {

class Client;

/// Counters of the cluster's fault-recovery machinery. Cumulative since
/// cluster start (PurgeAll does not reset them).
struct FaultRecoveryStats {
  uint64_t node_crashes = 0;     // CrashNode() calls that took a node down
  uint64_t node_restarts = 0;    // nodes brought back up (catch-up converged)
  uint64_t hinted_kvps = 0;      // writes buffered for a down replica
  uint64_t hint_replayed_kvps = 0;  // hints applied during catch-up
  uint64_t hint_overflows = 0;   // hint buffers dropped for a region copy
  uint64_t recopied_kvps = 0;    // kvps the copied regions held
  uint64_t corrupt_files_quarantined = 0;  // files node stores moved aside
  uint64_t corruption_repairs = 0;  // region copies healing a quarantine
  uint64_t read_repairs = 0;  // reads re-served from a healthy replica after
                              // another replica returned Corruption
};

/// Write-availability accounting for the quorum replication path. Every
/// replicated write resolves to exactly one of quorum-met or unavailable, so
/// `writes_attempted == writes_quorum_met + writes_unavailable` holds at any
/// snapshot (all three are incremented together when a write resolves).
/// Cumulative since cluster start.
struct AvailabilityStats {
  uint64_t writes_attempted = 0;    // replicated write batches resolved
  uint64_t writes_quorum_met = 0;   // resolved with quorum acks (success)
  uint64_t writes_unavailable = 0;  // resolved Unavailable (quorum lost)
  /// kvps hinted because a replica missed the straggler window after quorum
  /// was already met (laggards absorbed by hinted handoff).
  uint64_t straggler_hinted_kvps = 0;
  /// Writes failed by the per-request deadline (subset of unavailable).
  uint64_t deadline_exceeded = 0;
  /// Acks that arrived for an already-resolved replica slot (duplicate or
  /// post-finalize delivery); counted and dropped.
  uint64_t duplicate_acks_ignored = 0;
};

/// An in-process gateway cluster (the System Under Test of TPCx-IoT): N
/// nodes, hash-sharded by a configurable shard key into N shards, each
/// replicated to `replication_factor` distinct nodes. Node S leads shard
/// S: its region of the shard is the shard's one LSM. The other replicas
/// back it: they log the shard's batches and install the files the leader
/// ships after each flush and compaction (see Node).
///
///   ClusterOptions opts;
///   opts.num_nodes = 8;
///   auto cluster = Cluster::Start(opts).MoveValueUnsafe();
///   Client client(cluster.get());
///   client.Put(key, value);
///
/// Replication is asynchronous over an explicit message Channel: the write
/// path fans a batch out to every replica mailbox, then blocks only until a
/// write quorum (default majority) of acks returns. Laggard replicas get a
/// straggler window after quorum and are then absorbed by hinted handoff;
/// replicas known down at send time are hinted immediately and excluded
/// from the quorum denominator (so degraded single-survivor clusters still
/// accept writes). A write that cannot reach quorum — e.g. under a network
/// partition injected by the FaultChannel — fails fast with
/// Status::Unavailable. The coordinator numbers each shard's batches, so
/// every replica logs a batch at the same sequences and applies it once.
/// A node that went down through CrashNode() (losing unsynced state), or
/// whose hint buffer overflowed, is caught up at RestartNode() by copying
/// each of its regions from one healthy live replica.
class Cluster {
 public:
  static Result<std::unique_ptr<Cluster>> Start(const ClusterOptions& options);

  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Node* node(int i) { return nodes_[i].get(); }

  const ClusterOptions& options() const { return options_; }

  Clock* clock() const;

  /// Non-null when options().enable_fault_injection is set; shared by all
  /// node stores, so the harness can set rates / inspect fault counters.
  storage::FaultInjectionEnv* fault_env() { return fault_env_.get(); }

  /// Non-null when options().enable_net_fault_injection is set: the
  /// replication channel's fault decorator (delays, drops, partitions).
  FaultChannel* net_fault_channel() { return net_fault_channel_; }

  /// Effective number of distinct replicas per write.
  int effective_replication() const;

  /// Replica acks required before a write is reported durable: a majority
  /// of the effective replication (eff/2 + 1, i.e. 2-of-3). Replicas that
  /// are known down at send time are covered by hinted handoff and do not
  /// count toward the denominator, so single-node degraded clusters still
  /// accept writes; replicas that are up but unreachable (partitioned) are
  /// quorum-governed and can make writes fail Unavailable.
  int write_quorum() const;

  /// Shard id (primary node) for a row key.
  int PrimaryNodeFor(const Slice& row_key) const;

  /// Distinct replica node ids for a row key, primary first.
  std::vector<int> ReplicaNodesFor(const Slice& row_key) const;

  /// Replica node ids for an already-extracted shard key (no shard_key_fn
  /// application), primary first.
  std::vector<int> ReplicaNodesForShardKey(const Slice& shard_key) const;

  /// Simulates an abrupt node failure: the node drops off the cluster and —
  /// when fault injection is enabled — loses everything its store had not
  /// yet synced, exactly like a killed process.
  Status CrashNode(int id);

  /// Brings a node back: reopens its led region through log/manifest
  /// recovery, catches it up (hint replay over the channel, or a copy of
  /// every region after a crash or hint overflow) and only then marks it
  /// live again.
  Status RestartNode(int id);

  FaultRecoveryStats GetFaultRecoveryStats() const;

  AvailabilityStats GetAvailabilityStats() const;

  /// Blocks until the replication plane is quiescent: no in-flight quorum
  /// writes, and every hint buffer destined to a live node has drained.
  /// Hints for down nodes don't block (they drain at RestartNode). Returns
  /// TimedOut if the plane is still busy after `timeout_micros`. The
  /// default is sized for heavily oversubscribed CI machines, where a
  /// loaded drain can take tens of seconds; an idle plane returns at once.
  Status WaitReplicationIdle(uint64_t timeout_micros = 60'000'000);

  /// Heals every node whose regions quarantined a corrupt file since the
  /// last call: copies each affected region from one healthy replica, then
  /// lifts the node's under-repair read fence. Nodes currently down stay
  /// pending (their RestartNode path copies every region anyway). Safe to
  /// call from a monitor thread while the workload keeps running.
  Status RunPendingRepairs();

  /// Node ids with a pending corruption repair (quarantined, not yet
  /// copied).
  std::vector<int> PendingRepairNodes() const;

  /// Aggregated and per-node statistics.
  NodeStats GetNodeStats(int i) const { return nodes_[i]->GetStats(); }
  NodeStats GetAggregateStats() const;

  /// Multi-line human-readable cluster state: per-node liveness, primary
  /// write share, storage-engine shape (files per level, flushes,
  /// compactions, stalls) and fault-recovery counters. The operator-facing
  /// "describe cluster" output.
  std::string Describe();

  /// Coefficient of variation of primary-write load across live nodes:
  /// 0 = perfectly balanced. The balancer metric behind Figure 15.
  double PrimaryLoadImbalance() const;

  /// Purges all data from every node (TPCx-IoT system cleanup between
  /// benchmark iterations). Quiesces replication first so no in-flight
  /// write or hint replay lands after the wipe. Also discards pending
  /// hints; fault-recovery counters keep accumulating.
  Status PurgeAll();

  /// Flushes every running node's led region, which ships the flush to the
  /// region's backups (used by deterministic tests).
  Status FlushAll();

 private:
  friend class Client;

  /// Ships one led region's versions to its backups.
  class ShardShipper final : public storage::RegionShipper {
   public:
    ShardShipper(Cluster* cluster, int shard)
        : cluster_(cluster), shard_(shard) {}
    uint64_t Ship(const storage::RegionVersion& version) override {
      return cluster_->ShipInstall(shard_, version);
    }

   private:
    Cluster* const cluster_;
    const int shard_;
  };

  explicit Cluster(const ClusterOptions& options);

  Slice ShardKeyOf(const Slice& row_key) const;

  /// Replica node ids of the shard whose primary is `primary`, primary
  /// first: the one replica placement rule of the cluster.
  std::vector<int> ReplicaNodesForPrimary(int primary) const;

  /// Installs a led region's new version into each backup of `shard` that
  /// is up and reachable; one that is not, or fails, gets the whole version
  /// next time. Ships nothing while the leader's node is under repair.
  /// Runs on the leader's background thread. Returns the number of a
  /// leader file whose copy failed verification, or 0.
  uint64_t ShipInstall(int shard, const storage::RegionVersion& version);

 public:
  struct PendingWrite;

 private:
  /// The write path of Client, split for pipelining: Start numbers the
  /// shard's encoded `batch` (user bytes `bytes`), registers the write and
  /// fans it out over the channel without blocking; Wait blocks until
  /// quorum, Unavailable, or the per-request deadline. Client::PutBatch
  /// launches every shard group before awaiting any quorum.
  std::shared_ptr<PendingWrite> QuorumWriteStart(
      int shard, std::shared_ptr<storage::WriteBatch> batch, uint64_t bytes);
  Status QuorumWriteWait(const std::shared_ptr<PendingWrite>& pw);

  /// True when the coordinator can currently reach the node over the
  /// channel (always true without net fault injection). Reads use this to
  /// skip partitioned replicas.
  bool IsNodeReachable(int node_id) const;

  /// Buffers `batch` for a down replica. Returns false — without
  /// recording anything — when the node turned out to be up (the caller
  /// lost a race with RestartNode and must apply the write normally).
  bool TryRecordHint(int node_id, const ShardBatch& batch);

  /// Buffers `batch` for a replica regardless of its liveness: the sweeper
  /// for laggards (straggler timeout) and permanently-failing-but-up
  /// replicas. The background drain replays these once the node responds.
  void ForceRecordHint(int node_id, const ShardBatch& batch);
  void RecordHintLocked(int node_id, const ShardBatch& batch);

  /// Waits until a region copy into `target` can start from complete
  /// sources: every quorum write started before the call has resolved, and
  /// the hints of every other live node have drained.
  Status WaitForCopySources(int target);

  /// Replaces `target`'s region of `shard` with a checkpoint of the first
  /// healthy live replica's region (the one source, `target` excluded).
  /// Every batch `target` still logged is applied again.
  Status CopyRegion(int shard, int target);

  /// Store quarantine callback (may run on a store background thread with
  /// store locks held): records the event and queues the region for
  /// repair.
  void OnNodeQuarantine(int node_id, int shard, const std::string& path,
                        const Status& cause);

  /// Counts a read answered by a healthy replica after another replica
  /// returned Corruption (called by Client).
  void RecordReadRepair();

  /// Refreshes the cluster.hints.queue_depth gauge (total buffered hint
  /// rows across nodes) and the per-node cluster.node<id>.hint_queue_depth
  /// gauges. Caller holds hints_mu_.
  void UpdateHintDepthGaugeLocked();

  // --- quorum write machinery (all guarded by writes_mu_) ---

  enum class ReplicaState : unsigned char { kPending, kAcked, kHinted };

 public:
  struct PendingWrite {
    std::vector<int> replicas;
    std::vector<ReplicaState> states;
    std::vector<int> attempts;  // send attempts per replica slot
    /// The shard and its batch, numbered and then shared read-only by
    /// every send, resend and hint.
    ShardBatch shard_batch;
    uint64_t request_id = 0;
    uint64_t kvps = 0;
    uint64_t bytes = 0;
    int acks = 0;
    int required = 0;      // recomputed as replicas resolve to hinted
    int primary_slot = -1; // first slot fanned out; carries as_primary
    bool done = false;     // resolved (either way); clients wait on this
    bool quorum_met = false;
    bool straggler_timer_armed = false;
    Status error;
    uint64_t start_micros = 0;       // monotonic, drives timers/deadlines
    uint64_t start_wall_micros = 0;  // wall clock, for trace timestamps
    /// The quorum write's own span in the requesting op's trace (invalid
    /// when the op is untraced). Stamped into every outgoing request
    /// message; the quorum-ack span records under it.
    obs::TraceContext ctx;
  };

 private:

  enum class TimerKind : unsigned char { kResend, kStraggler, kDeadline };

  struct TimerEvent {
    uint64_t due_micros;
    uint64_t seq;
    TimerKind kind;
    uint64_t request_id;
    int replica_slot;  // kResend only
    bool operator>(const TimerEvent& other) const {
      if (due_micros != other.due_micros) return due_micros > other.due_micros;
      return seq > other.seq;
    }
  };

  /// Channel delivery handlers.
  void HandleReplicaMessage(int node_id, Message msg);
  void HandleCoordinatorMessage(Message msg);
  void HandleHintServiceMessage(Message msg);

  /// Resolves replica `slot` of `pw` to hinted, recomputing the quorum
  /// denominator, and finalises the write if that decided it. Caller holds
  /// writes_mu_.
  void HintReplicaSlotLocked(uint64_t request_id, PendingWrite* pw, int slot);
  void FinalizeLocked(uint64_t request_id, PendingWrite* pw, bool met,
                      Status error);
  void ArmTimerLocked(TimerKind kind, uint64_t due_micros,
                      uint64_t request_id, int replica_slot = -1);
  void SendWriteRequestLocked(uint64_t request_id, PendingWrite* pw,
                              int slot);
  uint64_t RetryBackoffMicros(int completed_attempts);

  void TimerLoop();
  void HintDrainLoop();

  /// Replays one hint batch to a node over the channel and waits for the
  /// ack (bounded by write_timeout). Used by the drain thread and by
  /// RestartNode catch-up (the node may still be marked down).
  Status SendHintBatchAndWait(
      int node_id, std::shared_ptr<const std::vector<ShardBatch>> batches);

  void ShutdownReplication();

  ClusterOptions options_;
  std::unique_ptr<storage::Env> owned_env_;
  std::unique_ptr<storage::FaultInjectionEnv> fault_env_;  // may be null
  std::vector<std::unique_ptr<ShardShipper>> shippers_;  // one per shard
  std::vector<std::unique_ptr<Node>> nodes_;

  /// Per (shard, node): the next install must copy the whole version.
  /// Only ShipInstall reads and writes a shard's slots, and one region at a
  /// time leads the shard, so no mark is lost between the read and the
  /// write. Guarded by ship_mu_, a leaf lock.
  std::mutex ship_mu_;
  std::vector<bool> full_install_;
  /// Serialises region copies: each holds the target's lifecycle lock
  /// while it takes the source's.
  std::mutex copy_mu_;

  /// The replication message plane. Owned; `net_fault_channel_` aliases it
  /// when net fault injection is on.
  std::unique_ptr<Channel> channel_;
  FaultChannel* net_fault_channel_ = nullptr;

  mutable std::mutex writes_mu_;
  std::condition_variable writes_cv_;  // write resolved / all writes idle
  std::condition_variable timer_cv_;
  std::unordered_map<uint64_t, std::shared_ptr<PendingWrite>> pending_writes_;
  std::priority_queue<TimerEvent, std::vector<TimerEvent>,
                      std::greater<TimerEvent>>
      timers_;
  uint64_t next_request_id_ = 1;
  uint64_t next_timer_seq_ = 0;
  /// The next sequence of each shard's batches.
  std::vector<uint64_t> next_sequence_;
  AvailabilityStats availability_;
  bool replication_shutdown_ = false;
  std::atomic<uint64_t> jitter_state_{0x9E3779B97F4A7C15ull};
  std::thread timer_thread_;

  /// Hint replay ack rendezvous (hint service endpoint).
  std::mutex hint_ack_mu_;
  std::condition_variable hint_ack_cv_;
  std::unordered_map<uint64_t, Status> hint_acks_;  // id -> outcome
  uint64_t next_hint_id_ = 1;
  bool hint_shutdown_ = false;

  struct HintBuffer {
    std::vector<ShardBatch> batches;
    uint64_t rows = 0;  // across batches
    bool overflowed = false;
  };

  /// Guards hints_ and fault_stats_, and serialises the hint-or-apply
  /// decision against the down->up flip in RestartNode. Lock order:
  /// writes_mu_ before hints_mu_ before repair_mu_; never the reverse.
  mutable std::mutex hints_mu_;
  std::condition_variable hints_cv_;  // drain tick / in-flight returned
  std::vector<HintBuffer> hints_;  // one per node
  int hints_in_flight_ = 0;  // batches swapped out for channel replay
  bool drain_shutdown_ = false;
  std::thread drain_thread_;
  /// cluster.node<id>.hint_queue_depth, parallel to hints_. The gauges are
  /// process-global; the destructor zeroes them so a later cluster (or the
  /// timeline) never sees ghost depth from this one.
  std::vector<obs::Gauge*> node_hint_depth_;
  /// Guarded by hints_mu_. Its corrupt_files_quarantined stays 0: that
  /// count is corrupt_files_quarantined_, under repair_mu_.
  FaultRecoveryStats fault_stats_;

  /// Leaf lock (nothing is acquired while holding it): the store quarantine
  /// callback runs under store locks and takes only this one.
  mutable std::mutex repair_mu_;
  /// Node id -> shards whose regions quarantined a corrupt file and still
  /// await a copy.
  std::map<int, std::set<int>> pending_repair_;
  uint64_t corrupt_files_quarantined_ = 0;
};

/// Routing client. A single instance may be shared by many threads (nodes
/// are thread-safe and the retry jitter state is atomic).
///
/// Writes replicate asynchronously over the cluster channel and return once
/// a write quorum of replicas acked (Status::Unavailable when quorum cannot
/// be reached before the deadline). Reads retry transient failures with
/// bounded exponential backoff + jitter under a per-op deadline
/// (ClusterOptions::retry_policy) and fail over across replicas.
class Client {
 public:
  explicit Client(Cluster* cluster) : cluster_(cluster) {}

  Client(const Client& rhs) : cluster_(rhs.cluster_) {}
  Client& operator=(const Client& rhs) {
    cluster_ = rhs.cluster_;
    return *this;
  }

  /// Writes one kvp to all replicas as a one-row PutBatch; returns once a
  /// quorum acked. Replicas missed because they were down (or lagged past
  /// the straggler window) get hints.
  Status Put(const Slice& key, const Slice& value);

  /// Writes a group of kvps: groups by primary node, then replicates each
  /// group's batch to that shard's replica set. Mirrors the HBase client
  /// write buffer flush path.
  Status PutBatch(
      const std::vector<std::pair<std::string, std::string>>& kvps);

  /// Reads from the primary, failing over to replicas when it is down or
  /// unreachable. A NotFound is only reported once enough replicas confirm
  /// absence to rule out a quorum-acked write they missed.
  Result<std::string> Get(const Slice& key);

  /// Point-reads many keys; out[i] is the value for keys[i] or empty when
  /// absent/unreadable. Returns the first non-NotFound error encountered,
  /// OK otherwise. Groups nothing (reads are independent), but saves the
  /// per-call routing setup.
  Status MultiGet(const std::vector<std::string>& keys,
                  std::vector<std::optional<std::string>>* out);

  /// Range scan within a single shard: `shard_key` routes the request; the
  /// scan range [start, end_exclusive) must lie within that shard's rows.
  /// Reads the first live replica, retrying transient failures and failing
  /// over to the next replica. `sink` is cleared before every attempt, so
  /// on success it holds exactly the rows of the attempt that succeeded.
  Status Scan(const Slice& shard_key, const Slice& start,
              const Slice& end_exclusive, size_t limit, RowSink* sink);

 private:
  /// Runs `op` under the retry policy. Retries transient failures (IOError/
  /// Busy/TimedOut) with exponential backoff + jitter until max_attempts or
  /// the op deadline (measured on the monotonic clock); gives up immediately
  /// when `node` goes down (the caller fails over instead).
  Status RetryOp(const std::function<Status()>& op, Node* node);

  uint64_t BackoffMicros(int completed_attempts);

  Cluster* cluster_;
  /// Jitter RNG state (splitmix64 over an atomic counter: thread-safe and
  /// allocation-free; determinism is not needed for jitter).
  std::atomic<uint64_t> jitter_state_{0x243F6A8885A308D3ull};
};

}  // namespace cluster
}  // namespace iotdb

#endif  // IOTDB_CLUSTER_CLUSTER_H_
