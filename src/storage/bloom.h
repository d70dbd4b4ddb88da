#ifndef IOTDB_STORAGE_BLOOM_H_
#define IOTDB_STORAGE_BLOOM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"

namespace iotdb {
namespace storage {

/// Double-hashed bloom filter (LevelDB/HBase style). Each SSTable stores one
/// filter over its user keys so point lookups skip tables that cannot
/// contain the key — critical for the benchmark's concurrent read path.
class BloomFilterBuilder {
 public:
  /// bits_per_key controls the false-positive rate: 10 bits ≈ 1%.
  explicit BloomFilterBuilder(int bits_per_key);

  void AddKey(const Slice& key);

  /// Serialises the filter (bit array + 1-byte probe count).
  std::string Finish();

 private:
  int bits_per_key_;
  int k_;  // number of probes
  std::vector<uint32_t> hashes_;
};

/// Tests membership against a filter produced by BloomFilterBuilder::Finish.
/// An empty/malformed filter conservatively matches everything.
bool BloomFilterMayMatch(const Slice& filter, const Slice& key);

/// The hash function shared by builder and matcher.
uint32_t BloomHash(const Slice& key);

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_BLOOM_H_
