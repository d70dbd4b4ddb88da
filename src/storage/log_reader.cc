#include "storage/log_reader.h"

#include <cstring>

#include "common/coding.h"
#include "common/crc32c.h"

namespace iotdb {
namespace storage {
namespace log {

Reader::Reader(SequentialFile* file, Reporter* reporter, bool checksum,
               std::string name, uint64_t start_offset)
    : file_(file),
      reporter_(reporter),
      checksum_(checksum),
      name_(std::move(name)),
      backing_store_(new char[kBlockSize]),
      buffer_(),
      eof_(false),
      end_of_buffer_offset_(start_offset),
      next_read_(kBlockSize - start_offset % kBlockSize) {}

bool Reader::ReadRecord(Slice* record, std::string* scratch) {
  scratch->clear();
  record->clear();
  bool in_fragmented_record = false;

  Slice fragment;
  for (;;) {
    const unsigned int record_type = ReadPhysicalRecord(&fragment);
    switch (record_type) {
      case kFullType:
        if (in_fragmented_record) {
          ReportCorruption(scratch->size(), "partial record without end");
        }
        scratch->clear();
        *record = fragment;
        return true;

      case kFirstType:
        if (in_fragmented_record) {
          ReportCorruption(scratch->size(), "partial record without end");
        }
        scratch->assign(fragment.data(), fragment.size());
        in_fragmented_record = true;
        break;

      case kMiddleType:
        if (!in_fragmented_record) {
          ReportCorruption(fragment.size(),
                           "missing start of fragmented record");
        } else {
          scratch->append(fragment.data(), fragment.size());
        }
        break;

      case kLastType:
        if (!in_fragmented_record) {
          ReportCorruption(fragment.size(),
                           "missing start of fragmented record");
        } else {
          scratch->append(fragment.data(), fragment.size());
          *record = Slice(*scratch);
          return true;
        }
        break;

      case kEof:
        if (in_fragmented_record) {
          // Writer died mid-record; drop the partial tail silently.
          scratch->clear();
        }
        return false;

      case kBadRecord:
        if (in_fragmented_record) {
          ReportCorruption(scratch->size(), "error in middle of record");
          in_fragmented_record = false;
          scratch->clear();
        }
        break;

      default:
        ReportCorruption(
            (fragment.size() + (in_fragmented_record ? scratch->size() : 0)),
            "unknown record type");
        in_fragmented_record = false;
        scratch->clear();
        break;
    }
  }
}

unsigned int Reader::ReadPhysicalRecord(Slice* result) {
  for (;;) {
    if (buffer_.size() < static_cast<size_t>(kHeaderSize)) {
      if (!eof_) {
        buffer_.clear();
        // Reads stay block-aligned: a reader that started mid-block first
        // reads to the end of that block.
        const size_t want = next_read_;
        next_read_ = kBlockSize;
        Status status = file_->Read(want, &buffer_, backing_store_.get());
        end_of_buffer_offset_ += buffer_.size();
        if (!status.ok()) {
          buffer_.clear();
          ReportDrop(want, status);
          eof_ = true;
          return kEof;
        }
        if (buffer_.size() < want) {
          eof_ = true;
        }
        continue;
      }
      // Truncated header at EOF: assume writer crash mid-header.
      buffer_.clear();
      return kEof;
    }

    const char* header = buffer_.data();
    const uint32_t a = static_cast<uint32_t>(header[4]) & 0xff;
    const uint32_t b = static_cast<uint32_t>(header[5]) & 0xff;
    const unsigned int type = static_cast<unsigned int>(header[6]);
    const uint32_t length = a | (b << 8);
    if (kHeaderSize + length > buffer_.size()) {
      size_t drop_size = buffer_.size();
      buffer_.clear();
      if (!eof_) {
        ReportCorruption(drop_size, "bad record length");
        return kBadRecord;
      }
      return kEof;
    }

    if (type == kZeroType && length == 0) {
      // Zero-filled block trailer; skip.
      buffer_.clear();
      return kBadRecord;
    }

    if (checksum_) {
      uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(header));
      uint32_t actual_crc = crc32c::Value(header + 6, 1 + length);
      if (actual_crc != expected_crc) {
        size_t drop_size = buffer_.size();
        buffer_.clear();
        ReportCorruption(drop_size, "checksum mismatch");
        return kBadRecord;
      }
    }

    buffer_.remove_prefix(kHeaderSize + length);
    *result = Slice(header + kHeaderSize, length);
    return type;
  }
}

void Reader::ReportCorruption(uint64_t bytes, const char* reason) {
  // Identify the damaged region: file path plus the offset of the data
  // still buffered when the problem was noticed.
  std::string msg(reason);
  msg += " near offset " +
         std::to_string(end_of_buffer_offset_ - buffer_.size());
  if (!name_.empty()) msg += " of " + name_;
  ReportDrop(bytes, Status::Corruption(msg));
}

void Reader::ReportDrop(uint64_t bytes, const Status& reason) {
  if (reporter_ != nullptr) {
    reporter_->Corruption(static_cast<size_t>(bytes), reason);
  }
}

}  // namespace log
}  // namespace storage
}  // namespace iotdb
