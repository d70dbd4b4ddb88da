#ifndef IOTDB_STORAGE_VLOG_READER_H_
#define IOTDB_STORAGE_VLOG_READER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/slice.h"
#include "common/status.h"
#include "storage/env.h"
#include "storage/vlog_format.h"

namespace iotdb {
namespace storage {
namespace vlog {

/// Dereferences ValuePointers and checksum-walks whole vlog files. Keeps
/// the open RandomAccessFile handle per file number; every dereference
/// reads and verifies its record from the file. Thread-safe.
class VlogReader {
 public:
  VlogReader(Env* env, std::string dir);

  VlogReader(const VlogReader&) = delete;
  VlogReader& operator=(const VlogReader&) = delete;

  /// Reads the record named by `ptr`, verifies its checksum and that its
  /// embedded key equals `expected_key`, and sets *value to the record's
  /// value. Returns Corruption on any mismatch, leaving *value unspecified;
  /// the caller decides whether to quarantine.
  Status Get(const ValuePointer& ptr, const Slice& expected_key,
             std::string* value);

  /// Sequentially parses every record of file `file_no` from offset 0 to
  /// `limit` (its current durable size when the walk starts, so a
  /// concurrently-appended tail is not misread as torn). Adds the bytes
  /// walked to *bytes_checked even on failure. Returns Corruption at the
  /// first bad record.
  Status VerifyFile(uint64_t file_no, uint64_t limit,
                    uint64_t* bytes_checked);

  /// Drops the cached handle for a deleted/quarantined file so future
  /// dereferences re-probe the filesystem (and fail cleanly).
  void Evict(uint64_t file_no);

 private:
  Status GetFile(uint64_t file_no, std::shared_ptr<RandomAccessFile>* file);

  Env* const env_;
  const std::string dir_;

  std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<RandomAccessFile>> files_;
};

/// "<dir>/<file_no as %08u>.vlog" — same zero-padded naming as .sst/.log.
std::string VlogFileName(const std::string& dir, uint64_t file_no);

}  // namespace vlog
}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_VLOG_READER_H_
