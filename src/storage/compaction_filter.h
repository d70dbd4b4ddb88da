#ifndef IOTDB_STORAGE_COMPACTION_FILTER_H_
#define IOTDB_STORAGE_COMPACTION_FILTER_H_

#include "common/slice.h"

namespace iotdb {
namespace storage {

/// User hook invoked on the newest visible version of each key during
/// compaction (RocksDB idiom). Returning true drops the entry — the
/// mechanism behind gateway data retention: the paper's gateways keep only
/// short-term data before the back-end takes over (§I), so old sensor
/// readings age out of the store instead of accumulating forever.
///
/// The filter only sees entries no live snapshot can observe, and never
/// sees deletion markers. Implementations must be thread-safe (compactions
/// run on background threads) and deterministic for a given key/value.
class CompactionFilter {
 public:
  virtual ~CompactionFilter() = default;

  /// True when the entry should be removed from the store. `value` is the
  /// value as the table stores it: the row's bytes for a value shorter than
  /// Options::min_value_size, but for a separated row the 20-byte encoded
  /// vlog::ValuePointer, never the row (compaction reads no vlog record). A
  /// filter that must look at large rows cannot; the retention filter reads
  /// only the key. A dropped pointer's record counts as dead vlog bytes.
  virtual bool ShouldDrop(const Slice& user_key, const Slice& value) const
      = 0;

  /// Diagnostic name.
  virtual const char* Name() const = 0;
};

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_COMPACTION_FILTER_H_
