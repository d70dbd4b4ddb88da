#ifndef IOTDB_STORAGE_CACHE_H_
#define IOTDB_STORAGE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace iotdb {
namespace storage {

/// A cached item's address: the number of the file it came from and its
/// byte offset there. Tables key blocks by their cache id and vlog readers
/// key values by their file number; one store draws both from one counter
/// and owns its cache, so the two never collide.
struct CacheKey {
  uint64_t id = 0;
  uint64_t offset = 0;

  bool operator==(const CacheKey&) const = default;
};

/// Mixes both halves into every bit: shards are picked by the low bits, and
/// block offsets alone share theirs.
struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const {
    uint64_t h = key.id * 0x9e3779b97f4a7c15ull ^ key.offset;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }
};

/// Sharded LRU cache mapping CacheKeys to shared_ptr<void> values with an
/// accounted charge, used as the SSTable block cache. Thread-safe.
class LruCache {
 public:
  explicit LruCache(size_t capacity_bytes, int shard_bits = 4);

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Inserts (replacing any prior entry) with the given charge.
  void Insert(const CacheKey& key, std::shared_ptr<void> value,
              size_t charge);

  /// Returns the cached value or nullptr, promoting the entry on hit.
  std::shared_ptr<void> Lookup(const CacheKey& key);

  void Erase(const CacheKey& key);

  size_t TotalCharge() const;
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<void> value;
    size_t charge;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index;
    size_t charge = 0;
    size_t capacity = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;

    void EvictIfNeeded();
  };

  Shard& ShardFor(const CacheKey& key);

  std::unique_ptr<Shard[]> shards_;
  size_t num_shards_;
};

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_CACHE_H_
