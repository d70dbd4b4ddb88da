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

/// Opens vlog files and checksum-walks them. Keeps the open
/// RandomAccessFile handle per file number; a VlogCursor reads records
/// through it. Thread-safe.
class VlogReader {
 public:
  VlogReader(Env* env, std::string dir);

  VlogReader(const VlogReader&) = delete;
  VlogReader& operator=(const VlogReader&) = delete;

  /// Parses every record of file `file_no` from offset 0 to `limit` in
  /// bounded reads, verifying each where it lies; a record that crosses
  /// the end of one read is read again, whole, by the next. Adds the bytes
  /// walked to *bytes_checked even on failure. Returns Corruption at the
  /// first bad record.
  Status VerifyFile(uint64_t file_no, uint64_t limit,
                    uint64_t* bytes_checked);

  /// Drops the cached handle for a deleted/quarantined file so future
  /// dereferences re-probe the filesystem (and fail cleanly).
  void Evict(uint64_t file_no);

  /// The cached handle of `file_no`, opened on first use.
  Status GetFile(uint64_t file_no, std::shared_ptr<RandomAccessFile>* file);

  /// Bytes VerifyFile reads at a time: one MemEnv chunk, so a read that
  /// starts on a chunk boundary is handed out in place.
  static constexpr size_t kVerifyReadBytes = kMemEnvChunkSize;

 private:
  Env* const env_;
  const std::string dir_;

  std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<RandomAccessFile>> files_;
};

/// Dereferences the value pointers of one reader (an iterator or a point
/// lookup); every dereference reads and verifies its record. It keeps the
/// handle of the file it read last, so a run of pointers into one file, as
/// a scan of rows one flush wrote meets, takes no lock, map lookup or
/// refcount per record. Not thread-safe.
class VlogCursor {
 public:
  explicit VlogCursor(VlogReader* reader) : reader_(reader) {}

  VlogCursor(const VlogCursor&) = delete;
  VlogCursor& operator=(const VlogCursor&) = delete;

  /// Reads the record `ptr` names, verifies its checksum and that its key
  /// is `expected_key`, and points *value at the record's value. The bytes
  /// lie where the env hands them out (in place in a MemEnv chunk) or, for
  /// a record that crosses a chunk, in a buffer the cursor owns; they stay
  /// valid until the next Read or the cursor's destruction. Returns
  /// Corruption on any mismatch.
  Status Read(const ValuePointer& ptr, const Slice& expected_key,
              Slice* value);

 private:
  VlogReader* const reader_;
  uint64_t file_no_ = 0;
  std::shared_ptr<RandomAccessFile> file_;  // of file_no_, once opened
  std::unique_ptr<char[]> scratch_;
  size_t scratch_size_ = 0;
};

/// "<dir>/<file_no as %08u>.vlog" — same zero-padded naming as .sst/.log.
std::string VlogFileName(const std::string& dir, uint64_t file_no);

}  // namespace vlog
}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_VLOG_READER_H_
