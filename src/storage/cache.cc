#include "storage/cache.h"

#include "obs/metrics.h"

namespace iotdb {
namespace storage {

namespace {

/// Process-wide block-cache counters, aggregated over every LruCache
/// instance (per-instance hits()/misses() remain exact and unaffected).
obs::Counter* GlobalHits() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("storage.block_cache.hits");
  return counter;
}

obs::Counter* GlobalMisses() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("storage.block_cache.misses");
  return counter;
}

}  // namespace

LruCache::LruCache(size_t capacity_bytes, int shard_bits) {
  num_shards_ = 1u << shard_bits;
  shards_ = std::make_unique<Shard[]>(num_shards_);
  size_t per_shard = (capacity_bytes + num_shards_ - 1) / num_shards_;
  for (size_t i = 0; i < num_shards_; ++i) {
    shards_[i].capacity = per_shard;
  }
}

LruCache::Shard& LruCache::ShardFor(const CacheKey& key) {
  return shards_[CacheKeyHash{}(key) & (num_shards_ - 1)];
}

void LruCache::Shard::EvictIfNeeded() {
  while (charge > capacity && !lru.empty()) {
    Entry& victim = lru.back();
    charge -= victim.charge;
    index.erase(victim.key);
    lru.pop_back();
  }
}

void LruCache::Insert(const CacheKey& key, std::shared_ptr<void> value,
                      size_t charge) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.charge -= it->second->charge;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  shard.lru.push_front(Entry{key, std::move(value), charge});
  shard.index[key] = shard.lru.begin();
  shard.charge += charge;
  shard.EvictIfNeeded();
}

std::shared_ptr<void> LruCache::Lookup(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.hits++;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      std::shared_ptr<void> value = it->second->value;
      GlobalHits()->Increment();
      return value;
    }
    shard.misses++;
  }
  GlobalMisses()->Increment();
  return nullptr;
}

void LruCache::Erase(const CacheKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return;
  shard.charge -= it->second->charge;
  shard.lru.erase(it->second);
  shard.index.erase(it);
}

size_t LruCache::TotalCharge() const {
  size_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].charge;
  }
  return total;
}

uint64_t LruCache::hits() const {
  uint64_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].hits;
  }
  return total;
}

uint64_t LruCache::misses() const {
  uint64_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].misses;
  }
  return total;
}

}  // namespace storage
}  // namespace iotdb
