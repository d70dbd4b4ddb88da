#ifndef IOTDB_STORAGE_ITERATOR_H_
#define IOTDB_STORAGE_ITERATOR_H_

#include <memory>

#include "common/slice.h"
#include "common/status.h"

namespace iotdb {
namespace storage {

/// Forward-only ordered cursor over key/value pairs (LevelDB-style
/// contract): position with SeekToFirst() or Seek(), then consume with
/// Valid()/key()/value()/Next(). key() and value() slices remain valid only
/// until the next mutation of the iterator.
class Iterator {
 public:
  Iterator() = default;
  virtual ~Iterator() = default;

  Iterator(const Iterator&) = delete;
  Iterator& operator=(const Iterator&) = delete;

  virtual bool Valid() const = 0;
  virtual void SeekToFirst() = 0;
  /// Positions at the first entry with key >= target.
  virtual void Seek(const Slice& target) = 0;
  virtual void Next() = 0;
  virtual Slice key() const = 0;
  virtual Slice value() const = 0;
  /// Non-OK when the iterator encountered corruption or an IO error.
  virtual Status status() const = 0;
};

/// An iterator over nothing, optionally carrying an error status.
std::unique_ptr<Iterator> NewEmptyIterator();
std::unique_ptr<Iterator> NewErrorIterator(Status status);

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_ITERATOR_H_
