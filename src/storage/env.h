#ifndef IOTDB_STORAGE_ENV_H_
#define IOTDB_STORAGE_ENV_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace iotdb {
namespace storage {

/// Append-only file handle used for WAL and SSTable writing.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const Slice& data) = 0;
  virtual Status Flush() = 0;
  /// Durable sync (fsync). The WAL group-commit path batches callers so
  /// Sync() is amortised over many writers.
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Positional-read file handle used for SSTable reading. Thread-safe.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  /// Reads up to n bytes at offset. *result points either into scratch or
  /// into memory the file owns, whose bytes stay valid and unchanged while
  /// this handle lives: MemEnv hands out the bytes in place when the range
  /// lies in one chunk and copies into scratch only across a chunk boundary.
  /// A later OverwriteFileRange shows in the next Read, never in a Slice
  /// already returned.
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;
  virtual uint64_t Size() const = 0;
};

/// Forward-only reader used for WAL recovery.
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;
  /// Reads up to n bytes; as with RandomAccessFile::Read, *result may point
  /// into the file's own memory instead of scratch while this handle lives.
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

/// Filesystem abstraction in the LevelDB/RocksDB style. Two implementations:
/// Env::Posix() (real files) and NewMemEnv() (in-process filesystem used by
/// tests, examples, and the in-process cluster so nodes do not contend on
/// the host disk).
class Env {
 public:
  virtual ~Env() = default;

  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;
  virtual Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) = 0;
  virtual Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) = 0;

  virtual bool FileExists(const std::string& path) = 0;
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) = 0;
  virtual Status CreateDir(const std::string& dir) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;

  /// Reads a whole file into *contents.
  Status ReadFileToString(const std::string& path, std::string* contents);
  /// Writes contents to path atomically enough for our purposes.
  Status WriteStringToFile(const std::string& path, const Slice& contents);

  /// Overwrites `data.size()` bytes at `offset` of an existing file: the
  /// file keeps its size and identity, and an already-open read handle sees
  /// the new bytes on its next Read, as on a real disk. A Slice a handle
  /// returned earlier keeps the old bytes (MemEnv patches a copy of each
  /// chunk it touches and swaps it in). This is the primitive behind bit-rot
  /// simulation (FaultInjectionEnv::CorruptFile); a store never calls it.
  /// The range [offset, offset + data.size()) must lie within the file.
  virtual Status OverwriteFileRange(const std::string& path, uint64_t offset,
                                    const Slice& data) = 0;

  /// Process-wide POSIX filesystem Env.
  static Env* Posix();
};

/// Creates a fresh, empty in-memory filesystem. Paths are flat strings;
/// directories are implicit. Thread-safe.
std::unique_ptr<Env> NewMemEnv();

/// A MemEnv file is a run of chunks of this many bytes that never move once
/// written; a read inside one chunk returns its bytes in place.
constexpr size_t kMemEnvChunkSize = 64 * 1024;

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_ENV_H_
