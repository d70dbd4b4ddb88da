#ifndef IOTDB_STORAGE_VLOG_FORMAT_H_
#define IOTDB_STORAGE_VLOG_FORMAT_H_

#include <cstdint>
#include <string>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/slice.h"
#include "common/status.h"

namespace iotdb {
namespace storage {
namespace vlog {

/// On-disk record of the append-only value log (WiscKey-style key-value
/// separation). A `.vlog` file is a flat sequence of records:
///
///   masked crc32c (fixed32) | keylen (varint32) | key | vallen (varint32)
///   | value
///
/// The checksum covers everything after itself (keylen..value) and is masked
/// with the same rotation the WAL uses, so a vlog record embedded verbatim in
/// another checksummed stream cannot collide trivially. The key is stored
/// with the value so garbage collection can re-associate a record with its
/// LSM entry, and a read can check that a pointer names its own key's
/// record, without a reverse index.
///
/// A memtable flush writes every value of at least Options::min_value_size
/// bytes to vlog files of its own, in key order, and the table stores a
/// fixed-width ValuePointer under ValueType::kValuePointer instead:
///
///   file_no (fixed64) | offset (fixed64) | size (fixed32)
///
/// `size` is the full record size (header included), so a dereference is one
/// positional read of exactly `size` bytes followed by a checksum check.

/// file_no + offset + record size.
constexpr size_t kValuePointerEncodedSize = 8 + 8 + 4;

/// Fixed-size crc32c header preceding each record's payload.
constexpr size_t kRecordHeaderSize = 4;

/// Location of one separated value inside the log.
struct ValuePointer {
  uint64_t file_no = 0;
  uint64_t offset = 0;   // of the record header (crc) within the file
  uint32_t size = 0;     // full record size, header included

  bool operator==(const ValuePointer& other) const {
    return file_no == other.file_no && offset == other.offset &&
           size == other.size;
  }
};

/// Appends the fixed-width pointer encoding to *dst.
inline void EncodeValuePointer(std::string* dst, const ValuePointer& ptr) {
  PutFixed64(dst, ptr.file_no);
  PutFixed64(dst, ptr.offset);
  PutFixed32(dst, ptr.size);
}

/// Decodes the value of a kValuePointer entry; false when malformed.
inline bool DecodeValuePointer(const Slice& stored_value, ValuePointer* ptr) {
  if (stored_value.size() != kValuePointerEncodedSize) return false;
  const char* p = stored_value.data();
  ptr->file_no = DecodeFixed64(p);
  ptr->offset = DecodeFixed64(p + 8);
  ptr->size = DecodeFixed32(p + 16);
  return true;
}

/// Appends one record for (key, value) to *dst and returns its size. The
/// record is built in place: the checksum is computed over the bytes just
/// appended and written into the header slot reserved ahead of them.
inline uint32_t AppendRecord(std::string* dst, const Slice& key,
                             const Slice& value) {
  const size_t start = dst->size();
  dst->append(kRecordHeaderSize, '\0');
  PutLengthPrefixedSlice(dst, key);
  PutLengthPrefixedSlice(dst, value);
  char* header = dst->data() + start;
  const uint32_t crc = crc32c::Value(header + kRecordHeaderSize,
                                     dst->size() - start - kRecordHeaderSize);
  EncodeFixed32(header, crc32c::Mask(crc));
  return static_cast<uint32_t>(dst->size() - start);
}

/// Parses and checksum-verifies the record at the front of `input`.
/// On success advances `input` past the record, sets *key/*value (pointing
/// into the original input bytes) and *record_size. Returns Corruption on a
/// checksum mismatch or malformed framing.
inline Status ParseRecord(Slice* input, Slice* key, Slice* value,
                          uint32_t* record_size) {
  if (input->size() < kRecordHeaderSize) {
    return Status::Corruption("vlog record truncated (header)");
  }
  const char* base = input->data();
  uint32_t expected = crc32c::Unmask(DecodeFixed32(base));
  Slice payload(base + kRecordHeaderSize,
                input->size() - kRecordHeaderSize);
  Slice cursor = payload;
  if (!GetLengthPrefixedSlice(&cursor, key) ||
      !GetLengthPrefixedSlice(&cursor, value)) {
    return Status::Corruption("vlog record truncated (payload)");
  }
  size_t payload_size =
      static_cast<size_t>(cursor.data() - payload.data());
  uint32_t actual = crc32c::Value(payload.data(), payload_size);
  if (actual != expected) {
    return Status::Corruption("vlog record checksum mismatch");
  }
  *record_size = static_cast<uint32_t>(kRecordHeaderSize + payload_size);
  input->remove_prefix(*record_size);
  return Status::OK();
}

}  // namespace vlog
}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_VLOG_FORMAT_H_
