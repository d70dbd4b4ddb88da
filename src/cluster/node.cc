#include "cluster/node.h"

#include <mutex>
#include <span>
#include <vector>

#include "obs/metrics.h"

namespace iotdb {
namespace cluster {

namespace {

/// Global per-op counters, aggregated across all nodes (per-node NodeStats
/// atomics stay exact for Describe()/load-balance math).
struct NodeInstruments {
  obs::Counter* writes;
  obs::Counter* reads;
  obs::Counter* scans;
  obs::Counter* scan_rows;
  obs::Counter* bytes_written;
};

NodeInstruments& Instruments() {
  static NodeInstruments instruments = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return NodeInstruments{registry.GetCounter("cluster.ops.writes"),
                           registry.GetCounter("cluster.ops.reads"),
                           registry.GetCounter("cluster.ops.scans"),
                           registry.GetCounter("cluster.ops.scan_rows"),
                           registry.GetCounter("cluster.ops.bytes_written")};
  }();
  return instruments;
}

/// Forwards a scan's rows to the caller's sink and counts them, those the
/// caller's sink takes by their heads included.
class CountingRowSink final : public RowSink {
 public:
  explicit CountingRowSink(RowSink* inner) : inner_(inner) {}

  void Add(const Slice& key, const Slice& value) override {
    inner_->Add(key, value);
    rows_++;
  }
  bool AddHead(const Slice& key, const Slice& head) override {
    if (!inner_->AddHead(key, head)) return false;
    rows_++;
    return true;
  }
  void Clear() override {
    inner_->Clear();
    rows_ = 0;
  }
  uint64_t rows() const { return rows_; }

 private:
  RowSink* inner_;
  uint64_t rows_ = 0;
};

}  // namespace

void Node::CorruptionListener::OnQuarantine(const std::string& path,
                                            const Status& cause) {
  node_->OnStoreQuarantine(path, cause);
}

Node::Node(int id, const storage::Options& options, std::string data_dir,
           storage::FaultInjectionEnv* fault_env,
           QuarantineHandler on_quarantine)
    : id_(id),
      obs_primary_kvps_(obs::MetricsRegistry::Global().GetCounter(
          "cluster.node" + std::to_string(id) + ".primary_kvps")),
      options_(options),
      data_dir_(std::move(data_dir)),
      fault_env_(fault_env),
      on_quarantine_(std::move(on_quarantine)) {
  // Every (re)open of the store reports quarantines back to this node.
  options_.corruption_reporter = &corruption_listener_;
}

Result<std::unique_ptr<Node>> Node::Start(
    int id, const storage::Options& options, const std::string& data_dir,
    storage::FaultInjectionEnv* fault_env, QuarantineHandler on_quarantine) {
  auto node = std::unique_ptr<Node>(
      new Node(id, options, data_dir, fault_env, std::move(on_quarantine)));
  IOTDB_ASSIGN_OR_RETURN(node->store_,
                         storage::KVStore::Open(node->options_, data_dir));
  return node;
}

void Node::OnStoreQuarantine(const std::string& path, const Status& cause) {
  // Runs with store locks held: record, flag, forward — nothing else.
  files_quarantined_.fetch_add(1, std::memory_order_relaxed);
  under_repair_.store(true, std::memory_order_release);
  if (on_quarantine_) on_quarantine_(id_, path, cause);
}

bool Node::is_running() const {
  std::shared_lock<std::shared_mutex> lock(lifecycle_mu_);
  return store_ != nullptr;
}

Status Node::NotRunningError() const {
  return Status::IOError("node " + std::to_string(id_) + " is down");
}

Status Node::Crash() {
  // New operations are rejected from here on; in-flight store IO starts
  // failing once the fault env marks the data dir crashed, which also
  // unblocks writers stalled on background work.
  down_.store(true, std::memory_order_release);
  if (fault_env_ != nullptr) fault_env_->MarkCrashed(data_dir_);
  {
    std::unique_lock<std::shared_mutex> lock(lifecycle_mu_);
    store_.reset();  // waits for in-flight ops (shared holders) to drain
  }
  if (fault_env_ != nullptr) {
    IOTDB_RETURN_NOT_OK(fault_env_->Crash(data_dir_));
  }
  crashed_.store(true, std::memory_order_release);
  return Status::OK();
}

Status Node::Restart() {
  if (fault_env_ != nullptr) fault_env_->ClearCrashed(data_dir_);
  std::unique_lock<std::shared_mutex> lock(lifecycle_mu_);
  if (store_ == nullptr) {
    IOTDB_ASSIGN_OR_RETURN(store_,
                           storage::KVStore::Open(options_, data_dir_));
  }
  // Still marked down: the cluster flips the node up after catch-up.
  return Status::OK();
}

Status Node::ApplyRows(
    const std::vector<std::pair<std::string, std::string>>& rows,
    bool as_primary, uint64_t kvps, uint64_t bytes) {
  std::shared_lock<std::shared_mutex> lock(lifecycle_mu_);
  if (is_down() || store_ == nullptr) return NotRunningError();
  std::vector<storage::KvEntry> entries;
  entries.reserve(rows.size());
  for (const auto& [key, value] : rows) {
    entries.push_back({Slice(key), Slice(value)});
  }
  IOTDB_RETURN_NOT_OK(store_->PutMany(
      storage::WriteOptions(),
      std::span<const storage::KvEntry>(entries.data(), entries.size())));
  writes_.fetch_add(kvps, std::memory_order_relaxed);
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  if (as_primary) {
    primary_writes_.fetch_add(kvps, std::memory_order_relaxed);
  }
  Instruments().writes->Add(kvps);
  Instruments().bytes_written->Add(bytes);
  if (as_primary) obs_primary_kvps_->Add(kvps);
  return Status::OK();
}

Status Node::ApplyHintBatch(
    const std::vector<std::pair<std::string, std::string>>& rows) {
  std::shared_lock<std::shared_mutex> lock(lifecycle_mu_);
  if (store_ == nullptr) return NotRunningError();
  std::vector<storage::KvEntry> entries;
  entries.reserve(rows.size());
  for (const auto& [key, value] : rows) {
    entries.push_back({Slice(key), Slice(value)});
  }
  return store_->PutMany(
      storage::WriteOptions(),
      std::span<const storage::KvEntry>(entries.data(), entries.size()));
}

Status Node::UnderRepairError() const {
  return Status::Corruption("node " + std::to_string(id_) +
                            " is under corruption repair; read from another "
                            "replica");
}

Result<std::string> Node::Get(const Slice& key) {
  std::shared_lock<std::shared_mutex> lock(lifecycle_mu_);
  if (is_down() || store_ == nullptr) return NotRunningError();
  // A quarantine removed keys from this store: a local miss — or a stale
  // deeper-level version — cannot be trusted until shards are re-copied.
  if (under_repair()) return UnderRepairError();
  reads_.fetch_add(1, std::memory_order_relaxed);
  Instruments().reads->Increment();
  return store_->Get(storage::ReadOptions(), key);
}

Status Node::Scan(const Slice& start, const Slice& end_exclusive,
                  size_t limit, RowSink* sink) {
  std::shared_lock<std::shared_mutex> lock(lifecycle_mu_);
  if (is_down() || store_ == nullptr) return NotRunningError();
  if (under_repair()) return UnderRepairError();
  scans_.fetch_add(1, std::memory_order_relaxed);
  CountingRowSink counted(sink);
  IOTDB_RETURN_NOT_OK(store_->Scan(start, end_exclusive, limit, &counted));
  scan_rows_read_.fetch_add(counted.rows(), std::memory_order_relaxed);
  Instruments().scans->Increment();
  Instruments().scan_rows->Add(counted.rows());
  return Status::OK();
}

NodeStats Node::GetStats() const {
  NodeStats stats;
  stats.writes = writes_.load(std::memory_order_relaxed);
  stats.primary_writes = primary_writes_.load(std::memory_order_relaxed);
  stats.reads = reads_.load(std::memory_order_relaxed);
  stats.scans = scans_.load(std::memory_order_relaxed);
  stats.scan_rows_read = scan_rows_read_.load(std::memory_order_relaxed);
  stats.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  stats.skipped_replica_writes =
      skipped_replica_writes_.load(std::memory_order_relaxed);
  return stats;
}

Status Node::Purge() {
  if (fault_env_ != nullptr) fault_env_->ClearCrashed(data_dir_);
  std::unique_lock<std::shared_mutex> lock(lifecycle_mu_);
  store_.reset();
  IOTDB_RETURN_NOT_OK(storage::KVStore::Destroy(options_, data_dir_));
  IOTDB_ASSIGN_OR_RETURN(store_, storage::KVStore::Open(options_, data_dir_));
  crashed_.store(false, std::memory_order_release);
  down_.store(false, std::memory_order_release);
  under_repair_.store(false, std::memory_order_release);
  files_quarantined_ = 0;
  writes_ = 0;
  primary_writes_ = 0;
  reads_ = 0;
  scans_ = 0;
  scan_rows_read_ = 0;
  bytes_written_ = 0;
  skipped_replica_writes_ = 0;
  return Status::OK();
}

}  // namespace cluster
}  // namespace iotdb
