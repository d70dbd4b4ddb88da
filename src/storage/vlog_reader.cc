#include "storage/vlog_reader.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace iotdb {
namespace storage {
namespace vlog {

namespace {

/// The full size the record at the front of `input` claims in its length
/// prefixes, or 0 when `input` ends before them.
uint64_t ClaimedRecordSize(const Slice& input) {
  if (input.size() < kRecordHeaderSize) return 0;
  const char* const begin = input.data();
  const char* const end = begin + input.size();
  uint32_t key_len = 0;
  const char* p = GetVarint32Ptr(begin + kRecordHeaderSize, end, &key_len);
  if (p == nullptr || static_cast<size_t>(end - p) < key_len) return 0;
  uint32_t value_len = 0;
  p = GetVarint32Ptr(p + key_len, end, &value_len);
  if (p == nullptr) return 0;
  return static_cast<uint64_t>(p - begin) + value_len;
}

}  // namespace

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

Status VlogReader::VerifyFile(uint64_t file_no, uint64_t limit,
                              uint64_t* bytes_checked) {
  std::shared_ptr<RandomAccessFile> file;
  IOTDB_RETURN_NOT_OK(GetFile(file_no, &file));

  std::string scratch;
  uint64_t offset = 0;  // of the first record not yet verified
  uint64_t want = kVerifyReadBytes;
  Status s;
  while (s.ok() && offset < limit) {
    const size_t n = static_cast<size_t>(std::min(want, limit - offset));
    if (scratch.size() < n) scratch.resize(n);
    Slice input;
    s = file->Read(offset, n, &input, scratch.data());
    if (!s.ok()) break;
    if (input.size() < n) {
      s = Status::Corruption("vlog file shorter than recorded size");
      break;
    }
    want = kVerifyReadBytes;
    while (!input.empty()) {
      const Slice rest = input;
      Slice key, value;
      uint32_t record_size = 0;
      Status parsed = ParseRecord(&input, &key, &value, &record_size);
      if (parsed.ok()) {
        offset += record_size;
        continue;
      }
      // A record the end of this read cut off is read again from its
      // start, whole; a record that fits, or claims to reach past `limit`,
      // is damaged.
      const uint64_t claimed = ClaimedRecordSize(rest);
      const bool cut = (claimed == 0 || claimed > rest.size()) &&
                       offset + rest.size() < limit;
      if (!cut) {
        s = parsed;
      } else if (claimed == 0) {
        want = std::max<uint64_t>(kVerifyReadBytes, 2 * rest.size());
      } else {
        want = std::max<uint64_t>(kVerifyReadBytes, claimed);
      }
      break;
    }
  }
  if (bytes_checked != nullptr) *bytes_checked += s.ok() ? limit : offset;
  return s;
}

Status VlogCursor::Read(const ValuePointer& ptr, const Slice& expected_key,
                        Slice* value) {
  if (file_ == nullptr || ptr.file_no != file_no_) {
    file_.reset();
    IOTDB_RETURN_NOT_OK(reader_->GetFile(ptr.file_no, &file_));
    file_no_ = ptr.file_no;
  }
  if (scratch_size_ < ptr.size) {
    scratch_size_ = std::max<size_t>(ptr.size, 2 * scratch_size_);
    scratch_ = std::make_unique<char[]>(scratch_size_);
  }
  Slice raw;
  IOTDB_RETURN_NOT_OK(file_->Read(ptr.offset, ptr.size, &raw, scratch_.get()));
  if (raw.size() != ptr.size) {
    return Status::Corruption("vlog record short read");
  }
  Slice key;
  uint32_t record_size = 0;
  IOTDB_RETURN_NOT_OK(ParseRecord(&raw, &key, value, &record_size));
  if (record_size != ptr.size || key != expected_key) {
    return Status::Corruption("vlog record does not match pointer");
  }
  return Status::OK();
}

}  // namespace vlog
}  // namespace storage
}  // namespace iotdb
