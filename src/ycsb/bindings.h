#ifndef IOTDB_YCSB_BINDINGS_H_
#define IOTDB_YCSB_BINDINGS_H_

#include <memory>
#include <span>
#include <vector>

#include "cluster/cluster.h"
#include "storage/kvstore.h"
#include "ycsb/db.h"

namespace iotdb {
namespace ycsb {

/// Binding to the in-process gateway cluster — the System Under Test of the
/// TPCx-IoT reproduction. Does not own the cluster.
class ClusterDB final : public DB {
 public:
  explicit ClusterDB(cluster::Cluster* cluster)
      : client_(cluster) {}

  Status Insert(const Slice& key, const Slice& value) override {
    return client_.Put(key, value);
  }

  Status InsertBatch(const std::vector<std::pair<std::string, std::string>>&
                         kvps) override {
    return client_.PutBatch(kvps);
  }

  Result<std::string> Read(const Slice& key) override {
    return client_.Get(key);
  }

  Status Scan(const Slice& shard_key, const Slice& start,
              const Slice& end_exclusive, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out)
      override {
    VectorRowSink sink(out);
    return Scan(shard_key, start, end_exclusive, limit, &sink);
  }

  Status Scan(const Slice& shard_key, const Slice& start,
              const Slice& end_exclusive, size_t limit,
              RowSink* sink) override {
    return client_.Scan(shard_key, start, end_exclusive, limit, sink);
  }

 private:
  cluster::Client client_;
};

/// Binding to a single local KVStore (no sharding/replication); used by
/// unit tests.
class KVStoreDB final : public DB {
 public:
  explicit KVStoreDB(storage::KVStore* store) : store_(store) {}

  Status Insert(const Slice& key, const Slice& value) override {
    return store_->Put(storage::WriteOptions(), key, value);
  }

  Status InsertBatch(const std::vector<std::pair<std::string, std::string>>&
                         kvps) override {
    // Vectorized ingest: one PutMany call commits the whole buffer as one
    // batch instead of committing row by row.
    std::vector<storage::KvEntry> entries;
    entries.reserve(kvps.size());
    for (const auto& [key, value] : kvps) {
      entries.push_back({Slice(key), Slice(value)});
    }
    return store_->PutMany(
        storage::WriteOptions(),
        std::span<const storage::KvEntry>(entries.data(), entries.size()));
  }

  Result<std::string> Read(const Slice& key) override {
    return store_->Get(storage::ReadOptions(), key);
  }

  Status Scan(const Slice& shard_key, const Slice& start,
              const Slice& end_exclusive, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out)
      override {
    VectorRowSink sink(out);
    return Scan(shard_key, start, end_exclusive, limit, &sink);
  }

  Status Scan(const Slice& /*shard_key*/, const Slice& start,
              const Slice& end_exclusive, size_t limit,
              RowSink* sink) override {
    return store_->Scan(start, end_exclusive, limit, sink);
  }

 private:
  storage::KVStore* store_;
};

}  // namespace ycsb
}  // namespace iotdb

#endif  // IOTDB_YCSB_BINDINGS_H_
