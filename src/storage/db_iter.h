#ifndef IOTDB_STORAGE_DB_ITER_H_
#define IOTDB_STORAGE_DB_ITER_H_

#include <memory>

#include "storage/dbformat.h"
#include "storage/iterator.h"

namespace iotdb {
namespace storage {

/// Turns the value of a kValuePointer entry into the row's bytes for a
/// DBIter (the store reads them from a value-log file).
class ValueResolver {
 public:
  virtual ~ValueResolver() = default;

  /// Points *value at the bytes that `pointer`, the entry's stored value,
  /// names for `user_key`. They stay valid until the next call or the
  /// resolver's destruction. A non-OK status ends the iteration with it.
  virtual Status Resolve(const Slice& user_key, const Slice& pointer,
                         Slice* value) = 0;
};

/// Wraps an internal-key merging iterator into a user-key iterator at a
/// snapshot: hides sequence numbers, collapses multiple versions to the
/// newest visible one, and skips deletion tombstones. A kValuePointer entry
/// is resolved through `resolver` when the iterator lands on it; without a
/// resolver such an entry ends the iteration with a Corruption status. A
/// non-empty `upper_bound` ends the iteration before the first user key
/// >= it, so no entry past the bound is resolved.
std::unique_ptr<Iterator> NewDBIterator(
    const InternalKeyComparator* icmp,
    std::unique_ptr<Iterator> internal_iter, SequenceNumber sequence,
    std::unique_ptr<ValueResolver> resolver = nullptr,
    const Slice& upper_bound = Slice());

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_DB_ITER_H_
