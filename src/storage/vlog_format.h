#ifndef IOTDB_STORAGE_VLOG_FORMAT_H_
#define IOTDB_STORAGE_VLOG_FORMAT_H_

#include <algorithm>
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
/// with the value so a read can check that a pointer names its own key's
/// record.
///
/// A memtable flush writes every value of at least Options::min_value_size
/// bytes to vlog files of its own, in key order, and the table stores a
/// ValuePointer under ValueType::kValuePointer instead, followed by the
/// value's head, its first min(kValueHeadSize, value size) bytes:
///
///   file_no (fixed64) | offset (fixed64) | size (fixed32) | head
///
/// `size` is the full record size (header included), so a dereference is one
/// positional read of exactly `size` bytes followed by a checksum check. The
/// head lies in the table's data block, under that block's checksum, so a
/// scan whose sink needs only a value's first bytes (RowSink::AddHead) reads
/// no record. An entry written before heads existed is the bare 20-byte
/// pointer and decodes with an empty head, which no scan offers.

/// file_no + offset + record size.
constexpr size_t kValuePointerEncodedSize = 8 + 8 + 4;

/// Bytes of each separated value a pointer entry repeats: enough for a
/// TPCx-IoT reading and its separator ("-180.0000|" is ten).
constexpr size_t kValueHeadSize = 16;

/// Fixed-size crc32c header preceding each record's payload.
constexpr size_t kRecordHeaderSize = 4;

/// One vlog file of a store's live set: its records occupy [0, size). The
/// size bounds a scrub's walk and an install's verification. Persisted in
/// the manifest as `vlog <number> <size>`.
struct VlogFileInfo {
  uint64_t number = 0;
  uint64_t size = 0;
};

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

/// Appends the entry of a separated value to *dst: the pointer to its
/// record, then the head of `value`.
inline void EncodeValuePointer(std::string* dst, const ValuePointer& ptr,
                               const Slice& value) {
  PutFixed64(dst, ptr.file_no);
  PutFixed64(dst, ptr.offset);
  PutFixed32(dst, ptr.size);
  dst->append(value.data(), std::min(value.size(), kValueHeadSize));
}

/// Decodes the value of a kValuePointer entry, 20 to 36 bytes; false when
/// malformed. *head, when non-null, points at the value's head inside
/// `stored_value` (empty for a bare pointer).
inline bool DecodeValuePointer(const Slice& stored_value, ValuePointer* ptr,
                               Slice* head = nullptr) {
  if (stored_value.size() < kValuePointerEncodedSize ||
      stored_value.size() > kValuePointerEncodedSize + kValueHeadSize) {
    return false;
  }
  const char* p = stored_value.data();
  ptr->file_no = DecodeFixed64(p);
  ptr->offset = DecodeFixed64(p + 8);
  ptr->size = DecodeFixed32(p + 16);
  if (head != nullptr) {
    *head = Slice(p + kValuePointerEncodedSize,
                  stored_value.size() - kValuePointerEncodedSize);
  }
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
