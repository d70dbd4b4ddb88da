#ifndef IOTDB_CLUSTER_NODE_H_
#define IOTDB_CLUSTER_NODE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>

#include "common/result.h"
#include "common/row_sink.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/corruption_reporter.h"
#include "storage/fault_env.h"
#include "storage/kvstore.h"

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

/// One gateway node: a region server wrapping a private KVStore instance.
/// All member functions are thread-safe. Lifecycle transitions (Crash,
/// Restart, Purge) serialise against in-flight operations with a
/// reader/writer lock.
class Node {
 public:
  /// Invoked when this node's store quarantines a corrupt file. May run on
  /// a store background thread with store locks held: only enqueue.
  using QuarantineHandler =
      std::function<void(int node_id, const std::string& path,
                        const Status& cause)>;

  /// `fault_env` (optional, not owned) enables realistic crash simulation:
  /// Crash() uses it to discard every byte the store had not yet synced.
  /// `on_quarantine` (optional) observes corrupt-file quarantines; the
  /// cluster uses it to trigger replica-driven repair.
  static Result<std::unique_ptr<Node>> Start(
      int id, const storage::Options& options, const std::string& data_dir,
      storage::FaultInjectionEnv* fault_env = nullptr,
      QuarantineHandler on_quarantine = nullptr);

  int id() const { return id_; }
  const std::string& data_dir() const { return data_dir_; }

  bool is_down() const { return down_.load(std::memory_order_acquire); }

  /// Liveness toggle for tests: marks the node unreachable without touching
  /// its store. Real failure scenarios go through Crash()/Restart(), which
  /// also lose/recover state.
  void SetDown(bool down) { down_.store(down, std::memory_order_release); }

  /// True while the store is open (false between Crash() and Restart()).
  bool is_running() const;

  /// True when the node went down via Crash(): acknowledged-but-unsynced
  /// writes died with it, so rejoin needs replica catch-up beyond hint
  /// replay. Cleared by the cluster after recovery completes.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  void ClearCrashed() { crashed_.store(false, std::memory_order_release); }

  /// True from the moment the store quarantines a corrupt file until the
  /// cluster finishes re-copying this node's shards from healthy replicas.
  /// While set, reads are refused with Status::Corruption so clients fail
  /// over — a quarantine removes keys, so a local miss (or a stale deeper-
  /// level version) can no longer be trusted. Writes proceed normally.
  bool under_repair() const {
    return under_repair_.load(std::memory_order_acquire);
  }
  void ClearUnderRepair() {
    under_repair_.store(false, std::memory_order_release);
  }

  /// Corrupt files this node's store has quarantined since start.
  uint64_t files_quarantined() const {
    return files_quarantined_.load(std::memory_order_relaxed);
  }

  /// Direct store access for tests and cluster-internal recovery. The
  /// caller must know the node is not concurrently crashing/restarting.
  storage::KVStore* store() { return store_.get(); }

  /// Simulated abrupt process crash: marks the node down, tears the store
  /// down without an orderly shutdown and — when a fault env is attached —
  /// drops all data the store had not yet Sync()ed (including torn WAL
  /// tails). Without a fault env this degrades to an orderly stop (the
  /// backing env keeps everything that was appended). Idempotent.
  Status Crash();

  /// Reopens the store through the normal KVStore::Open recovery path (WAL
  /// replay + manifest load). The node stays marked down; the cluster
  /// flips it up once replica catch-up has converged.
  Status Restart();

  /// Applies replicated rows: hands them straight to KVStore::PutMany, which
  /// commits them as one batch. `as_primary` only affects counters.
  Status ApplyRows(
      const std::vector<std::pair<std::string, std::string>>& rows,
      bool as_primary, uint64_t kvps, uint64_t bytes);

  /// Applies replayed hint rows. Unlike ApplyRows this succeeds while the
  /// node is still marked down (rejoin catch-up runs before the node is
  /// flipped live) and bumps no throughput counters — the rows were already
  /// counted when the original write was accepted.
  Status ApplyHintBatch(
      const std::vector<std::pair<std::string, std::string>>& rows);

  Result<std::string> Get(const Slice& key);

  /// Hands `sink` the rows of [start, end_exclusive) from the local store;
  /// the node's row counters count what the sink received.
  Status Scan(const Slice& start, const Slice& end_exclusive, size_t limit,
              RowSink* sink);

  /// Counts replica writes skipped because this node was down (recorded as
  /// hints by the cluster).
  void CountSkippedReplicaWrites(uint64_t kvps) {
    skipped_replica_writes_.fetch_add(kvps, std::memory_order_relaxed);
  }

  NodeStats GetStats() const;

  /// Drops all data and reopens the store (TPCx-IoT system cleanup). Also
  /// recovers a crashed node into a clean, live state.
  Status Purge();

 private:
  /// Bridges the store's CorruptionReporter callback onto the node.
  class CorruptionListener final : public storage::CorruptionReporter {
   public:
    explicit CorruptionListener(Node* node) : node_(node) {}
    void OnQuarantine(const std::string& path, const Status& cause) override;

   private:
    Node* const node_;
  };

  Node(int id, const storage::Options& options, std::string data_dir,
       storage::FaultInjectionEnv* fault_env, QuarantineHandler on_quarantine);

  Status NotRunningError() const;
  Status UnderRepairError() const;
  void OnStoreQuarantine(const std::string& path, const Status& cause);

  const int id_;
  /// cluster.node<id>.primary_kvps — feeds the timeline's per-node op
  /// series (the load-balance view of Figure 15, time-resolved).
  obs::Counter* const obs_primary_kvps_;
  CorruptionListener corruption_listener_{this};
  storage::Options options_;
  const std::string data_dir_;
  storage::FaultInjectionEnv* const fault_env_;  // may be null
  const QuarantineHandler on_quarantine_;        // may be null

  /// Shared: normal operations. Exclusive: store open/close transitions.
  mutable std::shared_mutex lifecycle_mu_;
  std::unique_ptr<storage::KVStore> store_;
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
