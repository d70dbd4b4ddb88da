#ifndef IOTDB_STORAGE_DBFORMAT_H_
#define IOTDB_STORAGE_DBFORMAT_H_

#include <cstdint>
#include <string>

#include "common/coding.h"
#include "common/slice.h"
#include "storage/comparator.h"

namespace iotdb {
namespace storage {

/// Sequence number of a write; monotonically increasing per store.
using SequenceNumber = uint64_t;

/// Max sequence fits in 56 bits: the low byte of the internal-key trailer
/// holds the value type.
static constexpr SequenceNumber kMaxSequenceNumber = ((1ull << 56) - 1);

enum class ValueType : uint8_t {
  kDeletion = 0x0,
  kValue = 0x1,
  /// The value is an encoded vlog::ValuePointer to the row's bytes in a
  /// value-log file. Only tables hold such entries: a flush writes them
  /// (see KVStore::FlushImmutable); the WAL and memtables never do.
  kValuePointer = 0x2,
};

/// Sentinel used when looking up: seeks to the newest entry <= the sequence.
/// It must be the highest type: entries of one sequence order by descending
/// type, so a lower sentinel would seek past an entry of exactly that
/// sequence with a higher type.
static constexpr ValueType kValueTypeForSeek = ValueType::kValuePointer;

/// Internal keys are user_key + 8-byte trailer ((seq << 8) | type). Ordering:
/// ascending user key, then descending sequence, then descending type, so the
/// newest version of a key is encountered first during iteration.
inline uint64_t PackSequenceAndType(SequenceNumber seq, ValueType t) {
  return (seq << 8) | static_cast<uint8_t>(t);
}

inline void AppendInternalKey(std::string* result, const Slice& user_key,
                              SequenceNumber seq, ValueType t) {
  result->append(user_key.data(), user_key.size());
  PutFixed64(result, PackSequenceAndType(seq, t));
}

struct ParsedInternalKey {
  Slice user_key;
  SequenceNumber sequence;
  ValueType type;
};

/// Returns false when the internal key is malformed (shorter than the
/// trailer or with an unknown type tag).
inline bool ParseInternalKey(const Slice& internal_key,
                             ParsedInternalKey* result) {
  if (internal_key.size() < 8) return false;
  uint64_t num = DecodeFixed64(internal_key.data() + internal_key.size() - 8);
  uint8_t tag = num & 0xff;
  if (tag > static_cast<uint8_t>(ValueType::kValuePointer)) return false;
  result->sequence = num >> 8;
  result->type = static_cast<ValueType>(tag);
  result->user_key = Slice(internal_key.data(), internal_key.size() - 8);
  return true;
}

inline Slice ExtractUserKey(const Slice& internal_key) {
  return Slice(internal_key.data(), internal_key.size() - 8);
}

/// Orders internal keys as described above, delegating the user-key part to
/// a user Comparator.
class InternalKeyComparator final : public Comparator {
 public:
  explicit InternalKeyComparator(const Comparator* user_comparator)
      : user_comparator_(user_comparator) {}

  int Compare(const Slice& a, const Slice& b) const override {
    int r = user_comparator_->Compare(ExtractUserKey(a), ExtractUserKey(b));
    if (r == 0) {
      const uint64_t anum = DecodeFixed64(a.data() + a.size() - 8);
      const uint64_t bnum = DecodeFixed64(b.data() + b.size() - 8);
      if (anum > bnum) {
        r = -1;
      } else if (anum < bnum) {
        r = +1;
      }
    }
    return r;
  }

  const char* Name() const override {
    return "iotdb.InternalKeyComparator";
  }

  void FindShortestSeparator(std::string* start,
                             const Slice& limit) const override {
    // Shorten the user-key portion, then re-append a maximal trailer.
    Slice user_start = ExtractUserKey(*start);
    Slice user_limit = ExtractUserKey(limit);
    std::string tmp(user_start.data(), user_start.size());
    user_comparator_->FindShortestSeparator(&tmp, user_limit);
    if (tmp.size() < user_start.size() &&
        user_comparator_->Compare(user_start, tmp) < 0) {
      PutFixed64(&tmp,
                 PackSequenceAndType(kMaxSequenceNumber, kValueTypeForSeek));
      start->swap(tmp);
    }
  }

  void FindShortSuccessor(std::string* key) const override {
    Slice user_key = ExtractUserKey(*key);
    std::string tmp(user_key.data(), user_key.size());
    user_comparator_->FindShortSuccessor(&tmp);
    if (tmp.size() < user_key.size() &&
        user_comparator_->Compare(user_key, tmp) < 0) {
      PutFixed64(&tmp,
                 PackSequenceAndType(kMaxSequenceNumber, kValueTypeForSeek));
      key->swap(tmp);
    }
  }

  const Comparator* user_comparator() const { return user_comparator_; }

 private:
  const Comparator* user_comparator_;
};

/// Internal key for a lookup at a given snapshot sequence.
inline std::string MakeLookupKey(const Slice& user_key, SequenceNumber seq) {
  std::string key;
  AppendInternalKey(&key, user_key, seq, kValueTypeForSeek);
  return key;
}

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_DBFORMAT_H_
