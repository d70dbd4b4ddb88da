#ifndef IOTDB_STORAGE_VERSION_H_
#define IOTDB_STORAGE_VERSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/dbformat.h"
#include "storage/table.h"

namespace iotdb {
namespace storage {

/// Number of LSM levels. Level 0 holds freshly-flushed (possibly
/// overlapping) tables; levels >= 1 hold disjoint key ranges.
static constexpr int kNumLevels = 7;

/// Metadata for one live SSTable.
struct FileMeta {
  uint64_t number = 0;
  uint64_t file_size = 0;
  std::string smallest;  // internal key
  std::string largest;   // internal key
  /// The vlog files the table's pointer entries point into, ascending. A
  /// vlog file stays live while a live table links it.
  std::vector<uint64_t> vlog_links;
  std::shared_ptr<Table> table;
};

/// The current shape of the LSM tree: per-level file lists. Level 0 is
/// ordered newest-first (descending file number); deeper levels are ordered
/// by smallest key and have disjoint ranges.
struct LevelState {
  std::vector<std::shared_ptr<FileMeta>> files[kNumLevels];

  uint64_t NumFiles(int level) const { return files[level].size(); }

  uint64_t LevelBytes(int level) const {
    uint64_t total = 0;
    for (const auto& f : files[level]) total += f->file_size;
    return total;
  }

  int64_t TotalFiles() const {
    int64_t n = 0;
    for (int level = 0; level < kNumLevels; ++level) n += files[level].size();
    return n;
  }
};

/// True when [smallest,largest] of `f` overlaps the user-key range
/// [begin,end] (either bound may be empty = unbounded).
bool FileOverlapsRange(const InternalKeyComparator& icmp, const FileMeta& f,
                       const Slice& begin_user_key,
                       const Slice& end_user_key);

/// Compaction growth limit for each level, in bytes.
uint64_t MaxBytesForLevel(int level);

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_VERSION_H_
