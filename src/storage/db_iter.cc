#include "storage/db_iter.h"

#include <string>

namespace iotdb {
namespace storage {

namespace {

class DBIter final : public Iterator {
 public:
  DBIter(const InternalKeyComparator* icmp,
         std::unique_ptr<Iterator> internal_iter, SequenceNumber sequence)
      : user_comparator_(icmp->user_comparator()),
        iter_(std::move(internal_iter)),
        sequence_(sequence),
        valid_(false) {}

  bool Valid() const override { return valid_; }
  Slice key() const override { return ExtractUserKey(iter_->key()); }
  Slice value() const override { return iter_->value(); }

  Status status() const override {
    if (status_.ok()) return iter_->status();
    return status_;
  }

  void Next() override;
  void Seek(const Slice& target) override;
  void SeekToFirst() override;

 private:
  void FindNextUserEntry(bool skipping, std::string* skip);
  bool ParseKey(ParsedInternalKey* key);

  void SaveKey(const Slice& k, std::string* dst) {
    dst->assign(k.data(), k.size());
  }

  const Comparator* user_comparator_;
  std::unique_ptr<Iterator> iter_;
  SequenceNumber const sequence_;

  Status status_;
  std::string saved_key_;  // user key to skip past, or a seek target
  bool valid_;
};

bool DBIter::ParseKey(ParsedInternalKey* ikey) {
  if (!ParseInternalKey(iter_->key(), ikey)) {
    status_ = Status::Corruption("corrupted internal key in DBIter");
    return false;
  }
  return true;
}

void DBIter::Next() {
  assert(valid_);
  SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
  iter_->Next();
  if (!iter_->Valid()) {
    valid_ = false;
    saved_key_.clear();
    return;
  }
  FindNextUserEntry(true, &saved_key_);
}

void DBIter::FindNextUserEntry(bool skipping, std::string* skip) {
  // iter_ is positioned at the current internal entry.
  assert(iter_->Valid());
  do {
    ParsedInternalKey ikey;
    if (ParseKey(&ikey) && ikey.sequence <= sequence_) {
      switch (ikey.type) {
        case ValueType::kDeletion:
          // Hide all later (older) entries of this user key.
          SaveKey(ikey.user_key, skip);
          skipping = true;
          break;
        case ValueType::kValue:
          if (skipping &&
              user_comparator_->Compare(ikey.user_key, Slice(*skip)) <= 0) {
            // Hidden: older version of a key we already emitted/deleted.
          } else {
            valid_ = true;
            saved_key_.clear();
            return;
          }
          break;
      }
    }
    iter_->Next();
  } while (iter_->Valid());
  saved_key_.clear();
  valid_ = false;
}

void DBIter::Seek(const Slice& target) {
  saved_key_.clear();
  AppendInternalKey(&saved_key_, target, sequence_, kValueTypeForSeek);
  iter_->Seek(Slice(saved_key_));
  if (iter_->Valid()) {
    FindNextUserEntry(false, &saved_key_ /* temporary storage */);
  } else {
    valid_ = false;
  }
}

void DBIter::SeekToFirst() {
  iter_->SeekToFirst();
  if (iter_->Valid()) {
    FindNextUserEntry(false, &saved_key_ /* temporary storage */);
  } else {
    valid_ = false;
  }
}

}  // namespace

std::unique_ptr<Iterator> NewDBIterator(
    const InternalKeyComparator* icmp,
    std::unique_ptr<Iterator> internal_iter, SequenceNumber sequence) {
  return std::make_unique<DBIter>(icmp, std::move(internal_iter), sequence);
}

}  // namespace storage
}  // namespace iotdb
