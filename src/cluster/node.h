#ifndef IOTDB_CLUSTER_NODE_H_
#define IOTDB_CLUSTER_NODE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/row_sink.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/corruption_reporter.h"
#include "storage/fault_env.h"
#include "storage/kvstore.h"
#include "storage/region.h"
#include "storage/write_batch.h"

namespace iotdb {
namespace cluster {

/// Per-node operation counters (exposed through Cluster::GetNodeStats).
struct NodeStats {
  uint64_t writes = 0;           // kvps written (primary + replica)
  uint64_t primary_writes = 0;   // kvps written as primary
  uint64_t reads = 0;
  uint64_t scans = 0;
  uint64_t scan_rows_read = 0;
  uint64_t bytes_written = 0;
  /// Replica writes that could not be applied because this node was down;
  /// the cluster records them as hints instead of silently dropping them.
  uint64_t skipped_replica_writes = 0;
};

/// One gateway node: a region server holding one region per shard it
/// replicates. Node N leads shard N: that region is a full LSM in
/// data_dir() (store()). It backs every other shard whose replica set
/// holds it: each such region logs the shard's batches and installs the
/// leader's files, in data_dir()/shard<S>, opened on its first write,
/// read or install. All member functions are thread-safe. Lifecycle
/// transitions (Crash, Restart, Purge, ReplaceRegion) serialise against
/// in-flight operations with a reader/writer lock.
class Node {
 public:
  /// Invoked when a region of this node quarantines a corrupt file. May
  /// run on a store background thread with store locks held: only enqueue.
  using QuarantineHandler =
      std::function<void(int node_id, int shard, const std::string& path,
                         const Status& cause)>;

  /// `fault_env` (optional, not owned) enables realistic crash simulation:
  /// Crash() uses it to discard every byte the regions had not yet synced.
  /// `on_quarantine` (optional) observes corrupt-file quarantines; the
  /// cluster uses it to trigger replica-driven repair. `shipper` (optional,
  /// not owned) receives the led region's versions.
  static Result<std::unique_ptr<Node>> Start(
      int id, int num_shards, const storage::Options& options,
      const std::string& data_dir,
      storage::FaultInjectionEnv* fault_env = nullptr,
      QuarantineHandler on_quarantine = nullptr,
      storage::RegionShipper* shipper = nullptr);

  int id() const { return id_; }
  const std::string& data_dir() const { return data_dir_; }

  /// The directory of this node's region of `shard`.
  std::string RegionDir(int shard) const;

  bool is_down() const { return down_.load(std::memory_order_acquire); }

  /// Liveness toggle for tests: marks the node unreachable without touching
  /// its regions. Real failure scenarios go through Crash()/Restart(),
  /// which also lose/recover state.
  void SetDown(bool down) { down_.store(down, std::memory_order_release); }

  /// True while the regions are open (false between Crash() and Restart()).
  bool is_running() const;

  /// True when the node went down via Crash(): acknowledged-but-unsynced
  /// writes died with it, so rejoin needs replica catch-up beyond hint
  /// replay. Cleared by the cluster after recovery completes.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  void ClearCrashed() { crashed_.store(false, std::memory_order_release); }

  /// True from the moment a region quarantines a corrupt file until the
  /// cluster finishes copying the affected regions from healthy replicas.
  /// While set, reads are refused with Status::Corruption so clients fail
  /// over — a quarantine removes keys, so a local miss (or a stale deeper-
  /// level version) can no longer be trusted. Writes proceed normally.
  bool under_repair() const {
    return under_repair_.load(std::memory_order_acquire);
  }
  void ClearUnderRepair() {
    under_repair_.store(false, std::memory_order_release);
  }

  /// Corrupt files this node's regions have quarantined since start.
  uint64_t files_quarantined() const {
    return files_quarantined_.load(std::memory_order_relaxed);
  }

  /// The led region, for tests, benches and cluster-internal recovery. The
  /// caller must know the node is not concurrently crashing/restarting.
  storage::KVStore* store() { return regions_[id_].get(); }

  /// This node's region of `shard`, opened if it is not yet; null while
  /// the node is not running or when the open failed. Same caveat as
  /// store().
  storage::KVStore* region(int shard);

  /// The open regions, the led one first. Same caveat as store().
  std::vector<storage::KVStore*> regions();

  /// Keys in the open regions, by a full scan of each (tests and checks).
  /// Same caveat as store().
  uint64_t CountKeysSlow();

  /// Simulated abrupt process crash: marks the node down, tears every
  /// region down without an orderly shutdown and — when a fault env is
  /// attached — drops all data they had not yet Sync()ed (including torn
  /// log tails). Without a fault env this degrades to an orderly stop (the
  /// backing env keeps everything that was appended). Idempotent.
  Status Crash();

  /// Closes every region in order; the node then refuses all operations.
  /// A leader ships into other nodes' regions from its background thread,
  /// so a cluster closes every node before it frees any.
  void Close();

  /// Reopens the led region through the normal KVStore recovery path (log
  /// replay + manifest load); backed regions reopen on first use. The node
  /// stays marked down; the cluster flips it up once catch-up converged.
  Status Restart();

  /// Commits a replicated batch of `shard` at the sequence in its header,
  /// once: a batch the region already holds is acknowledged without a
  /// second write, and counted only the first time. `bytes` (the rows'
  /// user bytes) and `as_primary` only affect counters.
  Status ApplyRows(int shard, const storage::WriteBatch& batch,
                   bool as_primary, uint64_t bytes);

  /// Applies a replayed hint batch. Unlike ApplyRows this succeeds while
  /// the node is still marked down (rejoin catch-up runs before the node
  /// is flipped live) and bumps no throughput counters — the rows were
  /// already counted when the original write was accepted.
  Status ApplyHintBatch(int shard, const storage::WriteBatch& batch);

  Result<std::string> Get(int shard, const Slice& key);

  /// Hands `sink` the rows of [start, end_exclusive) from the region of
  /// `shard`; the node's row counters count what the sink received.
  Status Scan(int shard, const Slice& start, const Slice& end_exclusive,
              size_t limit, RowSink* sink);

  /// Installs the leader's `version` into this node's backed region of
  /// `shard` (KVStore::Install). Fails while the node is down or crashed.
  Status InstallRegion(int shard, const storage::RegionVersion& version,
                       bool full, uint64_t* bad_file);

  /// Copies a checkpoint of this node's region of `shard` into `dest`
  /// (KVStore::CopyTo); *kvps counts the sequences it holds.
  Status CheckpointRegion(int shard, const std::string& dest, uint64_t* kvps);

  /// Replaces the region of `shard` with a copy of another replica's:
  /// `copy` fills the emptied directory, the region reopens from it, and
  /// every batch the old region still logged is applied again (the ones
  /// the copy holds are dropped as duplicates).
  Status ReplaceRegion(int shard,
                       const std::function<Status(const std::string&)>& copy);

  /// Counts replica writes skipped because this node was down (recorded as
  /// hints by the cluster).
  void CountSkippedReplicaWrites(uint64_t kvps) {
    skipped_replica_writes_.fetch_add(kvps, std::memory_order_relaxed);
  }

  NodeStats GetStats() const;

  /// Drops every region and reopens the led one (TPCx-IoT system
  /// cleanup). Also recovers a crashed node into a clean, live state.
  Status Purge();

 private:
  /// Bridges the stores' CorruptionReporter callback onto the node.
  class CorruptionListener final : public storage::CorruptionReporter {
   public:
    explicit CorruptionListener(Node* node) : node_(node) {}
    void OnQuarantine(const std::string& path, const Status& cause) override;

   private:
    Node* const node_;
  };

  Node(int id, int num_shards, const storage::Options& options,
       std::string data_dir, storage::FaultInjectionEnv* fault_env,
       QuarantineHandler on_quarantine, storage::RegionShipper* shipper);

  Status NotRunningError() const;
  Status UnderRepairError() const;
  void OnStoreQuarantine(const std::string& path, const Status& cause);
  Result<std::unique_ptr<storage::KVStore>> OpenRegion(int shard);
  /// The region of `shard`, opening a backed one on first use. Caller holds
  /// lifecycle_mu_ shared, and the node is running.
  Result<storage::KVStore*> RegionLocked(int shard);

  const int id_;
  const int num_shards_;
  /// cluster.node<id>.primary_kvps — feeds the timeline's per-node op
  /// series (the load-balance view of Figure 15, time-resolved).
  obs::Counter* const obs_primary_kvps_;
  CorruptionListener corruption_listener_{this};
  storage::Options options_;
  const std::string data_dir_;
  storage::FaultInjectionEnv* const fault_env_;  // may be null
  const QuarantineHandler on_quarantine_;        // may be null
  storage::RegionShipper* const shipper_;        // may be null

  /// Shared: normal operations. Exclusive: region open/close transitions.
  mutable std::shared_mutex lifecycle_mu_;
  /// Guards the backed entries of regions_ while lifecycle_mu_ is held
  /// shared (a first use opens one); the led entry changes only under
  /// lifecycle_mu_ exclusive.
  std::mutex regions_mu_;
  /// One slot per shard; regions_[id_] is the led region, null while the
  /// node is not running.
  std::vector<std::unique_ptr<storage::KVStore>> regions_;
  std::atomic<bool> down_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<bool> under_repair_{false};
  std::atomic<uint64_t> files_quarantined_{0};

  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> primary_writes_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> scans_{0};
  std::atomic<uint64_t> scan_rows_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> skipped_replica_writes_{0};
};

}  // namespace cluster
}  // namespace iotdb

#endif  // IOTDB_CLUSTER_NODE_H_
