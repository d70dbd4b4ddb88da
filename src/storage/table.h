#ifndef IOTDB_STORAGE_TABLE_H_
#define IOTDB_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/block.h"
#include "storage/env.h"
#include "storage/iterator.h"
#include "storage/options.h"
#include "storage/table_format.h"

namespace iotdb {
namespace storage {

/// Immutable, sorted SSTable reader. Thread-safe. Holds the index block and
/// bloom filter in memory; every access to a data block reads it from the
/// file and verifies its checksum, so no read is served bytes that were not
/// checked on that read.
class Table {
 public:
  /// Opens a table over `file` (whose lifetime the Table takes over).
  /// `name` is the file path, used only to contextualise corruption
  /// statuses; empty is allowed.
  static Result<std::unique_ptr<Table>> Open(
      const Options& options, std::unique_ptr<RandomAccessFile> file,
      const std::string& name = "");

  ~Table() = default;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// Iterator over internal-key entries of the whole table.
  std::unique_ptr<Iterator> NewIterator() const;

  /// The table's largest internal key: the last entry of the data block
  /// that the index's last entry points at. That block is read and
  /// checksummed through ReadBlock. Empty when the table holds no entries.
  Result<std::string> ReadLastKey() const;

  /// Point lookup plumbing: seeks the table for internal key `k` and, if an
  /// entry >= k exists in the containing block, invokes handle_result once.
  /// Consults the bloom filter first.
  Status InternalGet(const Slice& k, void* arg,
                     void (*handle_result)(void* arg, const Slice& k,
                                           const Slice& v)) const;

  uint64_t ApproximateBloomSizeBytes() const { return filter_data_.size(); }

  /// Full-file checksum walk: re-reads the footer, index block, filter
  /// block, and every data block straight from the file with checksum
  /// verification on. Returns the first corruption found; `bytes_checked`
  /// (optional) accumulates the bytes verified either way. Safe to call
  /// concurrently with reads.
  Status VerifyIntegrity(uint64_t* bytes_checked = nullptr) const;

  const std::string& name() const { return name_; }

  /// Reads, checksums, and parses a block. Public because the two-level
  /// iterator implementation uses it.
  Result<std::unique_ptr<Block>> ReadBlock(const BlockHandle& handle) const;

  const Block* index_block() const { return index_block_.get(); }
  const Comparator* comparator() const { return options_.comparator; }

 private:
  Table(const Options& options, std::unique_ptr<RandomAccessFile> file,
        std::string name);

  Options options_;
  std::unique_ptr<RandomAccessFile> file_;
  std::string name_;  // file path for error context; may be empty
  std::unique_ptr<Block> index_block_;
  std::string filter_data_;  // empty when the table has no bloom filter
};

/// Reads one raw block and verifies its checksum.
/// Exposed for tests. `name` contextualises corruption statuses; empty is
/// allowed.
Result<std::string> ReadBlockContents(const RandomAccessFile* file,
                                      const BlockHandle& handle,
                                      const std::string& name = "");

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_TABLE_H_
