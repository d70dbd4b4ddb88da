#include "storage/env.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>

namespace iotdb {
namespace storage {

Status Env::ReadFileToString(const std::string& path, std::string* contents) {
  contents->clear();
  IOTDB_ASSIGN_OR_RETURN(auto file, NewSequentialFile(path));
  static constexpr size_t kBufSize = 64 * 1024;
  std::string scratch(kBufSize, '\0');
  for (;;) {
    Slice fragment;
    IOTDB_RETURN_NOT_OK(file->Read(kBufSize, &fragment, scratch.data()));
    if (fragment.empty()) break;
    contents->append(fragment.data(), fragment.size());
  }
  return Status::OK();
}

Status Env::WriteStringToFile(const std::string& path, const Slice& contents) {
  IOTDB_ASSIGN_OR_RETURN(auto file, NewWritableFile(path));
  IOTDB_RETURN_NOT_OK(file->Append(contents));
  IOTDB_RETURN_NOT_OK(file->Sync());
  return file->Close();
}

namespace {

// ---------------------------------------------------------------------------
// POSIX Env (stdio-based; adequate for a reproduction kit).
// ---------------------------------------------------------------------------

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string path, FILE* f)
      : path_(std::move(path)), file_(f) {}
  ~PosixWritableFile() override {
    if (file_ != nullptr) fclose(file_);
  }

  Status Append(const Slice& data) override {
    if (fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return Status::IOError(path_ + ": " + strerror(errno));
    }
    return Status::OK();
  }

  Status Flush() override {
    if (fflush(file_) != 0) {
      return Status::IOError(path_ + ": " + strerror(errno));
    }
    return Status::OK();
  }

  Status Sync() override {
    // fflush is sufficient for benchmark correctness in this environment;
    // a real deployment would fdatasync here.
    return Flush();
  }

  Status Close() override {
    if (file_ != nullptr) {
      int r = fclose(file_);
      file_ = nullptr;
      if (r != 0) return Status::IOError(path_ + ": close failed");
    }
    return Status::OK();
  }

 private:
  std::string path_;
  FILE* file_;
};

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string path, FILE* f, uint64_t size)
      : path_(std::move(path)), file_(f), size_(size) {}
  ~PosixRandomAccessFile() override {
    if (file_ != nullptr) fclose(file_);
  }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    std::lock_guard<std::mutex> lock(mu_);
    if (fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
      return Status::IOError(path_ + ": seek failed");
    }
    size_t read = fread(scratch, 1, n, file_);
    if (read < n && ferror(file_)) {
      return Status::IOError(path_ + ": read failed");
    }
    *result = Slice(scratch, read);
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  std::string path_;
  FILE* file_;
  uint64_t size_;
  mutable std::mutex mu_;
};

class PosixSequentialFile final : public SequentialFile {
 public:
  PosixSequentialFile(std::string path, FILE* f)
      : path_(std::move(path)), file_(f) {}
  ~PosixSequentialFile() override {
    if (file_ != nullptr) fclose(file_);
  }

  Status Read(size_t n, Slice* result, char* scratch) override {
    size_t read = fread(scratch, 1, n, file_);
    if (read < n && ferror(file_)) {
      return Status::IOError(path_ + ": read failed");
    }
    *result = Slice(scratch, read);
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    if (fseek(file_, static_cast<long>(n), SEEK_CUR) != 0) {
      return Status::IOError(path_ + ": skip failed");
    }
    return Status::OK();
  }

 private:
  std::string path_;
  FILE* file_;
};

class PosixEnv final : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    FILE* f = fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return Status::IOError(path + ": " + strerror(errno));
    }
    return std::unique_ptr<WritableFile>(new PosixWritableFile(path, f));
  }

  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    FILE* f = fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return Status::IOError(path + ": " + strerror(errno));
    }
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(path, ec);
    if (ec) {
      fclose(f);
      return Status::IOError(path + ": stat failed");
    }
    return std::unique_ptr<RandomAccessFile>(
        new PosixRandomAccessFile(path, f, size));
  }

  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override {
    FILE* f = fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return Status::IOError(path + ": " + strerror(errno));
    }
    return std::unique_ptr<SequentialFile>(new PosixSequentialFile(path, f));
  }

  bool FileExists(const std::string& path) override {
    std::error_code ec;
    return std::filesystem::exists(path, ec);
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      names.push_back(entry.path().filename().string());
    }
    if (ec) return Status::IOError(dir + ": " + ec.message());
    return names;
  }

  Status CreateDir(const std::string& dir) override {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return Status::IOError(dir + ": " + ec.message());
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    std::error_code ec;
    if (!std::filesystem::remove(path, ec) || ec) {
      return Status::IOError(path + ": remove failed");
    }
    return Status::OK();
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(path, ec);
    if (ec) return Status::IOError(path + ": stat failed");
    return size;
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    std::error_code ec;
    std::filesystem::rename(from, to, ec);
    if (ec) return Status::IOError(from + " -> " + to + ": " + ec.message());
    return Status::OK();
  }

  Status OverwriteFileRange(const std::string& path, uint64_t offset,
                            const Slice& data) override {
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(path, ec);
    if (ec) return Status::IOError(path + ": stat failed");
    if (offset + data.size() > size) {
      return Status::InvalidArgument(path + ": overwrite range past EOF");
    }
    FILE* f = fopen(path.c_str(), "r+b");
    if (f == nullptr) {
      return Status::IOError(path + ": " + strerror(errno));
    }
    Status s;
    if (fseek(f, static_cast<long>(offset), SEEK_SET) != 0 ||
        fwrite(data.data(), 1, data.size(), f) != data.size()) {
      s = Status::IOError(path + ": in-place overwrite failed");
    }
    if (fclose(f) != 0 && s.ok()) {
      s = Status::IOError(path + ": close failed");
    }
    return s;
  }
};

// ---------------------------------------------------------------------------
// In-memory Env.
// ---------------------------------------------------------------------------

constexpr size_t kChunk = kMemEnvChunkSize;
using Chunk = std::unique_ptr<char[]>;

// Free list shared by the files of one MemEnv. A dead file's chunks come
// back here and go to the next appender, so steady-state ingest neither
// mallocs nor page-faults a fresh chunk.
class ChunkPool {
 public:
  Chunk Take() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        Chunk chunk = std::move(free_.back());
        free_.pop_back();
        return chunk;
      }
    }
    return Chunk(new char[kChunk]);
  }

  void Give(std::vector<Chunk>* chunks) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Chunk& chunk : *chunks) free_.push_back(std::move(chunk));
    chunks->clear();
  }

 private:
  std::mutex mu_;
  std::vector<Chunk> free_;
};

// chunks_[i] holds bytes [i * kChunk, (i + 1) * kChunk). Appends write only
// past size_, and OverwriteFileRange patches a copy of each chunk it touches
// and swaps it in, keeping the old one in retired_ until the file dies, so
// bytes a reader was handed never change under it. Lock order: mu_ before
// the pool's mutex.
class MemFile {
 public:
  explicit MemFile(std::shared_ptr<ChunkPool> pool) : pool_(std::move(pool)) {}

  // Nothing else references a dying file, so mu_ is not needed here.
  ~MemFile() {
    pool_->Give(&chunks_);
    pool_->Give(&retired_);
  }

  MemFile(const MemFile&) = delete;
  MemFile& operator=(const MemFile&) = delete;

  void Append(const Slice& data) {
    std::lock_guard<std::mutex> lock(mu_);
    const char* src = data.data();
    size_t left = data.size();
    while (left > 0) {
      const size_t used = static_cast<size_t>(size_ % kChunk);
      if (used == 0) chunks_.push_back(pool_->Take());
      const size_t len = std::min(left, kChunk - used);
      memcpy(chunks_.back().get() + used, src, len);
      size_ += len;
      src += len;
      left -= len;
    }
  }

  // Sets *result to [offset, offset + n) clipped to the end of the file:
  // into the chunk when the range lies in one, else copied into scratch.
  void Read(uint64_t offset, size_t n, Slice* result, char* scratch) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (offset >= size_) {
      *result = Slice();
      return;
    }
    const size_t len =
        static_cast<size_t>(std::min<uint64_t>(n, size_ - offset));
    size_t index = static_cast<size_t>(offset / kChunk);
    size_t in_chunk = static_cast<size_t>(offset % kChunk);
    if (in_chunk + len <= kChunk) {
      *result = Slice(chunks_[index].get() + in_chunk, len);
      return;
    }
    for (size_t copied = 0; copied < len; ++index, in_chunk = 0) {
      const size_t part = std::min(len - copied, kChunk - in_chunk);
      memcpy(scratch + copied, chunks_[index].get() + in_chunk, part);
      copied += part;
    }
    *result = Slice(scratch, len);
  }

  uint64_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  // False when the range runs past the end of the file.
  bool Overwrite(uint64_t offset, const Slice& data) {
    std::lock_guard<std::mutex> lock(mu_);
    if (offset > size_ || data.size() > size_ - offset) return false;
    const char* src = data.data();
    size_t left = data.size();
    size_t index = static_cast<size_t>(offset / kChunk);
    size_t in_chunk = static_cast<size_t>(offset % kChunk);
    for (; left > 0; ++index, in_chunk = 0) {
      // Copy only the written part: the tail chunk past size_ is unset.
      const size_t written = static_cast<size_t>(
          std::min<uint64_t>(kChunk, size_ - uint64_t{index} * kChunk));
      const size_t len = std::min(left, kChunk - in_chunk);
      Chunk patched = pool_->Take();
      memcpy(patched.get(), chunks_[index].get(), written);
      memcpy(patched.get() + in_chunk, src, len);
      retired_.push_back(std::move(chunks_[index]));
      chunks_[index] = std::move(patched);
      src += len;
      left -= len;
    }
    return true;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Chunk> chunks_;   // guarded by mu_
  std::vector<Chunk> retired_;  // guarded by mu_
  uint64_t size_ = 0;           // guarded by mu_
  const std::shared_ptr<ChunkPool> pool_;
};

class MemFileSystem {
 public:
  std::mutex mu;
  std::map<std::string, std::shared_ptr<MemFile>> files;
  // Shared with every file, so a handle may outlive its env.
  const std::shared_ptr<ChunkPool> pool = std::make_shared<ChunkPool>();
};

class MemWritableFile final : public WritableFile {
 public:
  explicit MemWritableFile(std::shared_ptr<MemFile> file)
      : file_(std::move(file)) {}

  Status Append(const Slice& data) override {
    file_->Append(data);
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }

 private:
  std::shared_ptr<MemFile> file_;
};

class MemRandomAccessFile final : public RandomAccessFile {
 public:
  explicit MemRandomAccessFile(std::shared_ptr<MemFile> file)
      : file_(std::move(file)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    file_->Read(offset, n, result, scratch);
    return Status::OK();
  }

  uint64_t Size() const override { return file_->Size(); }

 private:
  std::shared_ptr<MemFile> file_;
};

class MemSequentialFile final : public SequentialFile {
 public:
  explicit MemSequentialFile(std::shared_ptr<MemFile> file)
      : file_(std::move(file)), pos_(0) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    file_->Read(pos_, n, result, scratch);
    pos_ += result->size();
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    pos_ += n;
    return Status::OK();
  }

 private:
  std::shared_ptr<MemFile> file_;
  uint64_t pos_;
};

class MemEnv final : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    std::lock_guard<std::mutex> lock(fs_.mu);
    auto file = std::make_shared<MemFile>(fs_.pool);
    fs_.files[path] = file;
    return std::unique_ptr<WritableFile>(new MemWritableFile(file));
  }

  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    std::lock_guard<std::mutex> lock(fs_.mu);
    auto it = fs_.files.find(path);
    if (it == fs_.files.end()) return Status::IOError(path + ": not found");
    return std::unique_ptr<RandomAccessFile>(
        new MemRandomAccessFile(it->second));
  }

  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override {
    std::lock_guard<std::mutex> lock(fs_.mu);
    auto it = fs_.files.find(path);
    if (it == fs_.files.end()) return Status::IOError(path + ": not found");
    return std::unique_ptr<SequentialFile>(new MemSequentialFile(it->second));
  }

  bool FileExists(const std::string& path) override {
    std::lock_guard<std::mutex> lock(fs_.mu);
    return fs_.files.count(path) > 0;
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    std::string prefix = dir;
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    std::vector<std::string> names;
    std::lock_guard<std::mutex> lock(fs_.mu);
    for (const auto& [path, file] : fs_.files) {
      if (path.size() > prefix.size() && path.compare(0, prefix.size(),
                                                      prefix) == 0) {
        std::string rest = path.substr(prefix.size());
        if (rest.find('/') == std::string::npos) names.push_back(rest);
      }
    }
    return names;
  }

  Status CreateDir(const std::string&) override { return Status::OK(); }

  Status RemoveFile(const std::string& path) override {
    std::lock_guard<std::mutex> lock(fs_.mu);
    if (fs_.files.erase(path) == 0) {
      return Status::IOError(path + ": not found");
    }
    return Status::OK();
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    std::lock_guard<std::mutex> lock(fs_.mu);
    auto it = fs_.files.find(path);
    if (it == fs_.files.end()) return Status::IOError(path + ": not found");
    return it->second->Size();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    std::lock_guard<std::mutex> lock(fs_.mu);
    auto it = fs_.files.find(from);
    if (it == fs_.files.end()) return Status::IOError(from + ": not found");
    if (from == to) return Status::OK();  // as POSIX rename: a no-op
    fs_.files[to] = it->second;
    fs_.files.erase(it);
    return Status::OK();
  }

  Status OverwriteFileRange(const std::string& path, uint64_t offset,
                            const Slice& data) override {
    std::shared_ptr<MemFile> file;
    {
      std::lock_guard<std::mutex> lock(fs_.mu);
      auto it = fs_.files.find(path);
      if (it == fs_.files.end()) return Status::IOError(path + ": not found");
      file = it->second;
    }
    if (!file->Overwrite(offset, data)) {
      return Status::InvalidArgument(path + ": overwrite range past EOF");
    }
    return Status::OK();
  }

 private:
  MemFileSystem fs_;
};

}  // namespace

Env* Env::Posix() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

std::unique_ptr<Env> NewMemEnv() { return std::make_unique<MemEnv>(); }

}  // namespace storage
}  // namespace iotdb
