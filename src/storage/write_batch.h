#ifndef IOTDB_STORAGE_WRITE_BATCH_H_
#define IOTDB_STORAGE_WRITE_BATCH_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "storage/dbformat.h"

namespace iotdb {
namespace storage {

class MemTable;

/// An ordered group of Put/Delete operations applied atomically, and the
/// unit of WAL logging. Serialised representation:
///
///   sequence (fixed64) | count (fixed32) | records...
///   record := kValue   varstring(key) varstring(value)
///           | kDeletion varstring(key)
///
/// The TPCx-IoT driver buffers many sensor readings per batch, mirroring the
/// HBase client write buffer the paper tunes to 8 GB.
class WriteBatch {
 public:
  WriteBatch();

  void Put(const Slice& key, const Slice& value);
  void Delete(const Slice& key);
  void Clear();

  int Count() const;
  size_t ApproximateSize() const { return rep_.size(); }

  /// The bytes Put(key, value) adds to the encoding.
  static size_t PutSize(const Slice& key, const Slice& value);
  /// Makes room for `record_bytes` more bytes of records (a sum of
  /// PutSize), so the Puts that add them never regrow the batch.
  void Reserve(size_t record_bytes) {
    rep_.reserve(rep_.size() + record_bytes);
  }

  /// Applies the batch to a memtable, assigning sequence, sequence+1, ...
  Status InsertInto(MemTable* memtable) const;

  /// Iterates the batch calling handler methods; used by WAL recovery.
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void Put(const Slice& key, const Slice& value) = 0;
    virtual void Delete(const Slice& key) = 0;
  };
  Status Iterate(Handler* handler) const;

  SequenceNumber sequence() const;
  void SetSequence(SequenceNumber seq);

  Slice Contents() const { return Slice(rep_); }
  static Status SetContents(WriteBatch* batch, const Slice& contents);

  /// Appends the operations of `src` to this batch.
  void Append(const WriteBatch& src);

 private:
  static constexpr size_t kHeader = 12;  // 8 (sequence) + 4 (count)

  std::string rep_;
};

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_WRITE_BATCH_H_
