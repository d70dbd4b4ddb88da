#ifndef IOTDB_STORAGE_VLOG_WRITER_H_
#define IOTDB_STORAGE_VLOG_WRITER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "storage/env.h"
#include "storage/vlog_format.h"

namespace iotdb {
namespace storage {
namespace vlog {

/// Writes one value-log file. A memtable flush owns one at a time and
/// writes its large values through it in key order; no other thread sees
/// the file until the flush installs it. Not thread-safe.
///
/// Records are built in a buffer that goes to the file whenever it passes
/// kFlushBytes, so a file of any size costs one bounded buffer.
class VlogWriter {
 public:
  VlogWriter(std::unique_ptr<WritableFile> file, uint64_t file_no);

  VlogWriter(const VlogWriter&) = delete;
  VlogWriter& operator=(const VlogWriter&) = delete;

  /// Appends one record and returns the pointer naming it. The record is
  /// durable only after Finish().
  Status Add(const Slice& key, const Slice& value, ValuePointer* ptr);

  /// Writes out the buffer, syncs and closes the file.
  Status Finish();

  uint64_t file_no() const { return file_no_; }

  /// Bytes in the file once buffered data is written.
  uint64_t offset() const { return offset_; }

 private:
  /// Buffered bytes that trigger a write to the file.
  static constexpr size_t kFlushBytes = 256 * 1024;

  std::unique_ptr<WritableFile> file_;
  const uint64_t file_no_;
  uint64_t offset_ = 0;
  std::string buffer_;
};

}  // namespace vlog
}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_VLOG_WRITER_H_
