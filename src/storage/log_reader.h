#ifndef IOTDB_STORAGE_LOG_READER_H_
#define IOTDB_STORAGE_LOG_READER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "storage/env.h"
#include "storage/log_format.h"

namespace iotdb {
namespace storage {
namespace log {

/// Reads records written by log::Writer, verifying checksums and skipping
/// damaged regions (reporting them to an optional Reporter). Used by WAL
/// recovery after a crash/cleanup-restart.
class Reader {
 public:
  class Reporter {
   public:
    virtual ~Reporter() = default;
    /// `bytes` of log data were dropped because of `status`.
    virtual void Corruption(size_t bytes, const Status& status) = 0;
  };

  /// file must remain live while the Reader is in use. `name` is the log's
  /// file path, used only to contextualise corruption reports; empty is
  /// allowed. A reader resuming where an earlier one stopped passes that
  /// offset (LastRecordEnd()) as `start_offset`, with `file` already
  /// skipped to it.
  Reader(SequentialFile* file, Reporter* reporter, bool checksum,
         std::string name = "", uint64_t start_offset = 0);

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Reads the next record into *record (backed by *scratch). Returns false
  /// at EOF.
  bool ReadRecord(Slice* record, std::string* scratch);

  /// The file offset just past the last record read.
  uint64_t LastRecordEnd() const {
    return end_of_buffer_offset_ - buffer_.size();
  }

 private:
  // Extend RecordType with internal outcomes.
  enum { kEof = kMaxRecordType + 1, kBadRecord = kMaxRecordType + 2 };

  unsigned int ReadPhysicalRecord(Slice* result);
  void ReportCorruption(uint64_t bytes, const char* reason);
  void ReportDrop(uint64_t bytes, const Status& reason);

  SequentialFile* const file_;
  Reporter* const reporter_;
  bool const checksum_;
  const std::string name_;  // file path for error context; may be empty
  std::unique_ptr<char[]> backing_store_;
  Slice buffer_;
  bool eof_;
  uint64_t end_of_buffer_offset_;  // file offset just past buffer_'s bytes
  size_t next_read_;  // bytes to the end of the block the file is in
};

}  // namespace log
}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_LOG_READER_H_
