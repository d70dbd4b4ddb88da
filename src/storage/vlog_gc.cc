#include "storage/vlog_gc.h"

#include "storage/vlog_reader.h"

namespace iotdb {
namespace storage {
namespace vlog {

Status ScanFileForGc(Env* env, const std::string& dir, uint64_t file_no,
                     uint64_t limit, std::vector<GcRecord>* records,
                     uint64_t* scanned_bytes) {
  std::string contents;
  IOTDB_RETURN_NOT_OK(
      env->ReadFileToString(VlogFileName(dir, file_no), &contents));
  if (contents.size() < limit) {
    return Status::Corruption("vlog file shorter than recorded size");
  }

  Slice input(contents.data(), static_cast<size_t>(limit));
  uint64_t offset = 0;
  while (!input.empty()) {
    Slice key, value;
    uint32_t record_size = 0;
    Status s = ParseRecord(&input, &key, &value, &record_size);
    if (!s.ok()) {
      if (scanned_bytes != nullptr) *scanned_bytes += offset;
      return s;
    }
    GcRecord rec;
    rec.key = key.ToString();
    rec.value = value.ToString();
    rec.ptr.file_no = file_no;
    rec.ptr.offset = offset;
    rec.ptr.size = record_size;
    records->push_back(std::move(rec));
    offset += record_size;
  }
  if (scanned_bytes != nullptr) *scanned_bytes += limit;
  return Status::OK();
}

}  // namespace vlog
}  // namespace storage
}  // namespace iotdb
