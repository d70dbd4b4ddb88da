#include "storage/db_iter.h"

#include <string>

namespace iotdb {
namespace storage {

namespace {

class DBIter final : public Iterator {
 public:
  DBIter(const InternalKeyComparator* icmp,
         std::unique_ptr<Iterator> internal_iter, SequenceNumber sequence,
         std::unique_ptr<ValueResolver> resolver, const Slice& upper_bound)
      : user_comparator_(icmp->user_comparator()),
        iter_(std::move(internal_iter)),
        sequence_(sequence),
        resolver_(std::move(resolver)),
        upper_bound_(upper_bound.ToString()),
        valid_(false) {}

  bool Valid() const override { return valid_; }
  Slice key() const override { return ExtractUserKey(iter_->key()); }
  Slice value() const override {
    return resolved_ ? resolved_value_ : iter_->value();
  }

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
  // Lands on the current entry, a visible value of ikey.user_key: ends the
  // iteration at the upper bound, and resolves a pointer entry.
  void Land(const ParsedInternalKey& ikey);

  void SaveKey(const Slice& k, std::string* dst) {
    dst->assign(k.data(), k.size());
  }

  const Comparator* user_comparator_;
  std::unique_ptr<Iterator> iter_;
  SequenceNumber const sequence_;

  std::unique_ptr<ValueResolver> const resolver_;
  const std::string upper_bound_;  // empty: unbounded

  Status status_;
  std::string saved_key_;  // user key to skip past, or a seek target
  bool valid_;
  bool resolved_ = false;  // value() is resolved_value_
  Slice resolved_value_;
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
        case ValueType::kValuePointer:
          if (skipping &&
              user_comparator_->Compare(ikey.user_key, Slice(*skip)) <= 0) {
            // Hidden: older version of a key we already emitted/deleted.
          } else {
            saved_key_.clear();
            Land(ikey);
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

void DBIter::Land(const ParsedInternalKey& ikey) {
  resolved_ = false;
  if (!upper_bound_.empty() &&
      user_comparator_->Compare(ikey.user_key, Slice(upper_bound_)) >= 0) {
    valid_ = false;
    return;
  }
  if (ikey.type == ValueType::kValuePointer) {
    Status s = resolver_ != nullptr
                   ? resolver_->Resolve(ikey.user_key, iter_->value(),
                                        &resolved_value_)
                   : Status::Corruption("value pointer without a resolver");
    if (!s.ok()) {
      status_ = s;
      valid_ = false;
      return;
    }
    resolved_ = true;
  }
  valid_ = true;
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
    std::unique_ptr<Iterator> internal_iter, SequenceNumber sequence,
    std::unique_ptr<ValueResolver> resolver, const Slice& upper_bound) {
  return std::make_unique<DBIter>(icmp, std::move(internal_iter), sequence,
                                  std::move(resolver), upper_bound);
}

}  // namespace storage
}  // namespace iotdb
