#include "cluster/node.h"

#include <cstdlib>
#include <mutex>
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

Node::Node(int id, int num_shards, const storage::Options& options,
           std::string data_dir, storage::FaultInjectionEnv* fault_env,
           QuarantineHandler on_quarantine, storage::RegionShipper* shipper)
    : id_(id),
      num_shards_(num_shards),
      obs_primary_kvps_(obs::MetricsRegistry::Global().GetCounter(
          "cluster.node" + std::to_string(id) + ".primary_kvps")),
      options_(options),
      data_dir_(std::move(data_dir)),
      fault_env_(fault_env),
      on_quarantine_(std::move(on_quarantine)),
      shipper_(shipper),
      regions_(static_cast<size_t>(num_shards)) {
  // Every (re)open of a region reports quarantines back to this node.
  options_.corruption_reporter = &corruption_listener_;
}

Result<std::unique_ptr<Node>> Node::Start(
    int id, int num_shards, const storage::Options& options,
    const std::string& data_dir, storage::FaultInjectionEnv* fault_env,
    QuarantineHandler on_quarantine, storage::RegionShipper* shipper) {
  auto node = std::unique_ptr<Node>(new Node(id, num_shards, options,
                                             data_dir, fault_env,
                                             std::move(on_quarantine),
                                             shipper));
  IOTDB_ASSIGN_OR_RETURN(node->regions_[id], node->OpenRegion(id));
  return node;
}

std::string Node::RegionDir(int shard) const {
  // A backed region lives under the led one's directory, so a crash of the
  // node's prefix takes every region down together.
  if (shard == id_) return data_dir_;
  return data_dir_ + "/shard" + std::to_string(shard);
}

Result<std::unique_ptr<storage::KVStore>> Node::OpenRegion(int shard) {
  if (shard == id_) {
    return storage::KVStore::OpenRegion(options_, data_dir_,
                                        storage::RegionRole::kLeader,
                                        shipper_);
  }
  return storage::KVStore::OpenRegion(options_, RegionDir(shard),
                                      storage::RegionRole::kBackup);
}

Result<storage::KVStore*> Node::RegionLocked(int shard) {
  if (shard < 0 || shard >= num_shards_) {
    return Status::InvalidArgument("no such shard: " + std::to_string(shard));
  }
  if (shard == id_) return regions_[id_].get();
  std::lock_guard<std::mutex> lock(regions_mu_);
  std::unique_ptr<storage::KVStore>& region = regions_[shard];
  if (region == nullptr) {
    IOTDB_ASSIGN_OR_RETURN(region, OpenRegion(shard));
  }
  return region.get();
}

storage::KVStore* Node::region(int shard) {
  std::shared_lock<std::shared_mutex> lock(lifecycle_mu_);
  if (regions_[id_] == nullptr) return nullptr;
  auto region = RegionLocked(shard);
  return region.ok() ? region.ValueOrDie() : nullptr;
}

std::vector<storage::KVStore*> Node::regions() {
  std::shared_lock<std::shared_mutex> lock(lifecycle_mu_);
  std::vector<storage::KVStore*> open;
  if (regions_[id_] == nullptr) return open;
  open.push_back(regions_[id_].get());
  std::lock_guard<std::mutex> regions_lock(regions_mu_);
  for (int shard = 0; shard < num_shards_; ++shard) {
    if (shard != id_ && regions_[shard] != nullptr) {
      open.push_back(regions_[shard].get());
    }
  }
  return open;
}

uint64_t Node::CountKeysSlow() {
  uint64_t keys = 0;
  for (storage::KVStore* region : regions()) keys += region->CountKeysSlow();
  return keys;
}

void Node::OnStoreQuarantine(const std::string& path, const Status& cause) {
  // Runs with store locks held: record, flag, forward — nothing else.
  int shard = id_;
  const std::string backed = data_dir_ + "/shard";
  if (path.compare(0, backed.size(), backed) == 0) {
    shard = std::atoi(path.c_str() + backed.size());
  }
  files_quarantined_.fetch_add(1, std::memory_order_relaxed);
  // Queue the repair before fencing: a repair pass that finishes meanwhile
  // then sees it pending and leaves the fence up.
  if (on_quarantine_) on_quarantine_(id_, shard, path, cause);
  under_repair_.store(true, std::memory_order_release);
}

bool Node::is_running() const {
  std::shared_lock<std::shared_mutex> lock(lifecycle_mu_);
  return regions_[id_] != nullptr;
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
    // Waits for in-flight ops (shared holders) to drain.
    std::unique_lock<std::shared_mutex> lock(lifecycle_mu_);
    for (auto& region : regions_) region.reset();
  }
  if (fault_env_ != nullptr) {
    IOTDB_RETURN_NOT_OK(fault_env_->Crash(data_dir_));
  }
  crashed_.store(true, std::memory_order_release);
  return Status::OK();
}

void Node::Close() {
  std::unique_lock<std::shared_mutex> lock(lifecycle_mu_);
  for (auto& region : regions_) region.reset();
}

Status Node::Restart() {
  if (fault_env_ != nullptr) fault_env_->ClearCrashed(data_dir_);
  std::unique_lock<std::shared_mutex> lock(lifecycle_mu_);
  if (regions_[id_] == nullptr) {
    IOTDB_ASSIGN_OR_RETURN(regions_[id_], OpenRegion(id_));
  }
  // Still marked down: the cluster flips the node up after catch-up.
  return Status::OK();
}

Status Node::ApplyRows(int shard, const storage::WriteBatch& batch,
                       bool as_primary, uint64_t bytes) {
  std::shared_lock<std::shared_mutex> lock(lifecycle_mu_);
  if (is_down() || regions_[id_] == nullptr) return NotRunningError();
  IOTDB_ASSIGN_OR_RETURN(storage::KVStore * region, RegionLocked(shard));
  bool applied = false;
  IOTDB_RETURN_NOT_OK(
      region->WriteAt(storage::WriteOptions(), batch, &applied));
  // A duplicate delivery or a resend of a batch the region holds already
  // wrote nothing.
  if (!applied) return Status::OK();
  const uint64_t kvps = static_cast<uint64_t>(batch.Count());
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

Status Node::ApplyHintBatch(int shard, const storage::WriteBatch& batch) {
  std::shared_lock<std::shared_mutex> lock(lifecycle_mu_);
  if (regions_[id_] == nullptr) return NotRunningError();
  IOTDB_ASSIGN_OR_RETURN(storage::KVStore * region, RegionLocked(shard));
  return region->WriteAt(storage::WriteOptions(), batch);
}

Status Node::UnderRepairError() const {
  return Status::Corruption("node " + std::to_string(id_) +
                            " is under corruption repair; read from another "
                            "replica");
}

Result<std::string> Node::Get(int shard, const Slice& key) {
  std::shared_lock<std::shared_mutex> lock(lifecycle_mu_);
  if (is_down() || regions_[id_] == nullptr) return NotRunningError();
  // A quarantine removed keys from a region: a local miss — or a stale
  // deeper-level version — cannot be trusted until the region is copied.
  if (under_repair()) return UnderRepairError();
  IOTDB_ASSIGN_OR_RETURN(storage::KVStore * region, RegionLocked(shard));
  reads_.fetch_add(1, std::memory_order_relaxed);
  Instruments().reads->Increment();
  return region->Get(storage::ReadOptions(), key);
}

Status Node::Scan(int shard, const Slice& start, const Slice& end_exclusive,
                  size_t limit, RowSink* sink) {
  std::shared_lock<std::shared_mutex> lock(lifecycle_mu_);
  if (is_down() || regions_[id_] == nullptr) return NotRunningError();
  if (under_repair()) return UnderRepairError();
  IOTDB_ASSIGN_OR_RETURN(storage::KVStore * region, RegionLocked(shard));
  scans_.fetch_add(1, std::memory_order_relaxed);
  CountingRowSink counted(sink);
  IOTDB_RETURN_NOT_OK(region->Scan(start, end_exclusive, limit, &counted));
  scan_rows_read_.fetch_add(counted.rows(), std::memory_order_relaxed);
  Instruments().scans->Increment();
  Instruments().scan_rows->Add(counted.rows());
  return Status::OK();
}

Status Node::InstallRegion(int shard, const storage::RegionVersion& version,
                           bool full, uint64_t* bad_file) {
  std::shared_lock<std::shared_mutex> lock(lifecycle_mu_);
  if (is_down() || regions_[id_] == nullptr) return NotRunningError();
  IOTDB_ASSIGN_OR_RETURN(storage::KVStore * region, RegionLocked(shard));
  return region->Install(version, full, bad_file);
}

Status Node::CheckpointRegion(int shard, const std::string& dest,
                              uint64_t* kvps) {
  std::shared_lock<std::shared_mutex> lock(lifecycle_mu_);
  if (regions_[id_] == nullptr) return NotRunningError();
  IOTDB_ASSIGN_OR_RETURN(storage::KVStore * region, RegionLocked(shard));
  return region->CopyTo(dest, kvps);
}

Status Node::ReplaceRegion(
    int shard, const std::function<Status(const std::string&)>& copy) {
  std::unique_lock<std::shared_mutex> lock(lifecycle_mu_);
  if (regions_[id_] == nullptr) return NotRunningError();
  std::vector<storage::WriteBatch> logged;
  {
    IOTDB_ASSIGN_OR_RETURN(storage::KVStore * old, RegionLocked(shard));
    IOTDB_RETURN_NOT_OK(old->LoggedBatches(&logged));
  }
  regions_[shard].reset();
  const std::string dir = RegionDir(shard);
  IOTDB_RETURN_NOT_OK(storage::KVStore::Destroy(options_, dir));
  Status s = copy(dir);
  // Reopen even after a failed copy, so the node keeps a region; the
  // caller retries the repair.
  IOTDB_ASSIGN_OR_RETURN(regions_[shard], OpenRegion(shard));
  IOTDB_RETURN_NOT_OK(s);
  for (const storage::WriteBatch& batch : logged) {
    IOTDB_RETURN_NOT_OK(
        regions_[shard]->WriteAt(storage::WriteOptions(), batch));
  }
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
  for (auto& region : regions_) region.reset();
  for (int shard = 0; shard < num_shards_; ++shard) {
    IOTDB_RETURN_NOT_OK(storage::KVStore::Destroy(options_, RegionDir(shard)));
  }
  IOTDB_ASSIGN_OR_RETURN(regions_[id_], OpenRegion(id_));
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
