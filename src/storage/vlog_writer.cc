#include "storage/vlog_writer.h"

namespace iotdb {
namespace storage {
namespace vlog {

VlogWriter::VlogWriter(std::unique_ptr<WritableFile> file, uint64_t file_no)
    : file_(std::move(file)), file_no_(file_no) {
  buffer_.reserve(kFlushBytes + 4096);
}

Status VlogWriter::Add(const Slice& key, const Slice& value,
                       ValuePointer* ptr) {
  ptr->file_no = file_no_;
  ptr->offset = offset_;
  ptr->size = AppendRecord(&buffer_, key, value);
  offset_ += ptr->size;
  if (buffer_.size() >= kFlushBytes) {
    IOTDB_RETURN_NOT_OK(file_->Append(buffer_));
    buffer_.clear();
  }
  return Status::OK();
}

Status VlogWriter::Finish() {
  if (!buffer_.empty()) {
    IOTDB_RETURN_NOT_OK(file_->Append(buffer_));
    buffer_.clear();
  }
  IOTDB_RETURN_NOT_OK(file_->Sync());
  return file_->Close();
}

}  // namespace vlog
}  // namespace storage
}  // namespace iotdb
