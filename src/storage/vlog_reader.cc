#include "storage/vlog_reader.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace iotdb {
namespace storage {
namespace vlog {

std::string VlogFileName(const std::string& dir, uint64_t file_no) {
  char buf[32];
  snprintf(buf, sizeof(buf), "/%08" PRIu64 ".vlog", file_no);
  return dir + buf;
}

VlogReader::VlogReader(Env* env, std::string dir)
    : env_(env), dir_(std::move(dir)) {}

Status VlogReader::GetFile(uint64_t file_no,
                           std::shared_ptr<RandomAccessFile>* file) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(file_no);
    if (it != files_.end()) {
      *file = it->second;
      return Status::OK();
    }
  }
  auto result = env_->NewRandomAccessFile(VlogFileName(dir_, file_no));
  if (!result.ok()) return result.status();
  std::shared_ptr<RandomAccessFile> opened =
      std::move(result).MoveValueUnsafe();
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = files_.emplace(file_no, std::move(opened));
  *file = it->second;
  return Status::OK();
}

void VlogReader::Evict(uint64_t file_no) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(file_no);
}

Status VlogReader::Get(const ValuePointer& ptr, const Slice& expected_key,
                       std::string* value) {
  std::shared_ptr<RandomAccessFile> file;
  IOTDB_RETURN_NOT_OK(GetFile(ptr.file_no, &file));

  // *value is the read buffer. The record is verified where its bytes lie
  // and the value is copied once, to the front of *value.
  value->resize(ptr.size);
  Slice raw;
  IOTDB_RETURN_NOT_OK(file->Read(ptr.offset, ptr.size, &raw, value->data()));
  if (raw.size() != ptr.size) {
    return Status::Corruption("vlog record short read");
  }

  Slice input = raw;
  Slice key, val;
  uint32_t record_size = 0;
  IOTDB_RETURN_NOT_OK(ParseRecord(&input, &key, &val, &record_size));
  if (record_size != ptr.size || key != expected_key) {
    return Status::Corruption("vlog record does not match pointer");
  }

  memmove(value->data(), val.data(), val.size());
  value->resize(val.size());
  return Status::OK();
}

Status VlogReader::VerifyFile(uint64_t file_no, uint64_t limit,
                              uint64_t* bytes_checked) {
  std::shared_ptr<RandomAccessFile> file;
  IOTDB_RETURN_NOT_OK(GetFile(file_no, &file));

  std::string scratch(limit, '\0');
  Slice contents;
  IOTDB_RETURN_NOT_OK(file->Read(0, limit, &contents, scratch.data()));
  if (contents.size() < limit) {
    return Status::Corruption("vlog file shorter than recorded size");
  }
  contents = Slice(contents.data(), limit);

  Slice input = contents;
  while (!input.empty()) {
    Slice key, value;
    uint32_t record_size = 0;
    Status s = ParseRecord(&input, &key, &value, &record_size);
    if (!s.ok()) {
      // Count the walked prefix so scrub pacing stays honest even when the
      // walk aborts at a bad record.
      if (bytes_checked != nullptr) {
        *bytes_checked += limit - input.size();
      }
      return s;
    }
  }
  if (bytes_checked != nullptr) *bytes_checked += limit;
  return Status::OK();
}

}  // namespace vlog
}  // namespace storage
}  // namespace iotdb
