#ifndef IOTDB_STORAGE_SKIPLIST_H_
#define IOTDB_STORAGE_SKIPLIST_H_

#include <atomic>
#include <cassert>
#include <cstdint>

#include "common/arena.h"
#include "common/random.h"

namespace iotdb {
namespace storage {

/// Lock-free-read skiplist (LevelDB design). Writes must be externally
/// serialised; reads may proceed concurrently with one writer without locks
/// because nodes are immutable after insertion and links are published with
/// release stores.
///
/// Key is a trivially-copyable handle (the memtable uses const char*).
/// Comparator is a functor: int operator()(const Key&, const Key&) const.
template <typename Key, class Comparator>
class SkipList {
 public:
  SkipList(Comparator cmp, Arena* arena);

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Inserts key. Requires that nothing equal to key is already present.
  void Insert(const Key& key);

  bool Contains(const Key& key) const;

  /// Forward cursor over the list contents.
  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }
    const Key& key() const {
      assert(Valid());
      return node_->key;
    }
    void Next() {
      assert(Valid());
      node_ = node_->Next(0);
    }
    void Seek(const Key& target) {
      node_ = list_->FindGreaterOrEqual(target, nullptr);
    }
    void SeekToFirst() { node_ = list_->head_->Next(0); }

   private:
    const SkipList* list_;
    const typename SkipList::Node* node_;
  };

 private:
  static constexpr int kMaxHeight = 12;

  struct Node {
    explicit Node(const Key& k) : key(k) {}

    const Key key;

    Node* Next(int n) const {
      assert(n >= 0);
      return next_[n].load(std::memory_order_acquire);
    }
    void SetNext(int n, Node* x) {
      assert(n >= 0);
      next_[n].store(x, std::memory_order_release);
    }
    Node* NoBarrierNext(int n) const {
      return next_[n].load(std::memory_order_relaxed);
    }
    void NoBarrierSetNext(int n, Node* x) {
      next_[n].store(x, std::memory_order_relaxed);
    }

    // Variable-length trailing array; index 0 is the bottom level.
    std::atomic<Node*> next_[1];
  };

  Node* NewNode(const Key& key, int height);
  int RandomHeight();
  bool Equal(const Key& a, const Key& b) const {
    return compare_(a, b) == 0;
  }
  bool KeyIsAfterNode(const Key& key, Node* n) const {
    return (n != nullptr) && (compare_(n->key, key) < 0);
  }

  Node* FindGreaterOrEqual(const Key& key, Node** prev) const;

  int GetMaxHeight() const {
    return max_height_.load(std::memory_order_relaxed);
  }

  Comparator const compare_;
  Arena* const arena_;
  Node* const head_;
  std::atomic<int> max_height_;
  Random rnd_;
};

template <typename Key, class Comparator>
typename SkipList<Key, Comparator>::Node*
SkipList<Key, Comparator>::NewNode(const Key& key, int height) {
  char* mem = arena_->AllocateAligned(
      sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1));
  return new (mem) Node(key);
}

template <typename Key, class Comparator>
int SkipList<Key, Comparator>::RandomHeight() {
  static constexpr unsigned int kBranching = 4;
  int height = 1;
  while (height < kMaxHeight && rnd_.OneIn(kBranching)) {
    height++;
  }
  return height;
}

template <typename Key, class Comparator>
typename SkipList<Key, Comparator>::Node*
SkipList<Key, Comparator>::FindGreaterOrEqual(const Key& key,
                                              Node** prev) const {
  Node* x = head_;
  int level = GetMaxHeight() - 1;
  for (;;) {
    Node* next = x->Next(level);
    if (KeyIsAfterNode(key, next)) {
      x = next;
    } else {
      if (prev != nullptr) prev[level] = x;
      if (level == 0) {
        return next;
      }
      level--;
    }
  }
}

template <typename Key, class Comparator>
SkipList<Key, Comparator>::SkipList(Comparator cmp, Arena* arena)
    : compare_(cmp),
      arena_(arena),
      head_(NewNode(Key(), kMaxHeight)),
      max_height_(1),
      rnd_(0xdeadbeef) {
  for (int i = 0; i < kMaxHeight; i++) {
    head_->SetNext(i, nullptr);
  }
}

template <typename Key, class Comparator>
void SkipList<Key, Comparator>::Insert(const Key& key) {
  Node* prev[kMaxHeight];
  Node* x = FindGreaterOrEqual(key, prev);

  assert(x == nullptr || !Equal(key, x->key));

  int height = RandomHeight();
  if (height > GetMaxHeight()) {
    for (int i = GetMaxHeight(); i < height; i++) {
      prev[i] = head_;
    }
    // Concurrent readers observing the new height will fall through the
    // head's null links harmlessly.
    max_height_.store(height, std::memory_order_relaxed);
  }

  x = NewNode(key, height);
  for (int i = 0; i < height; i++) {
    x->NoBarrierSetNext(i, prev[i]->NoBarrierNext(i));
    prev[i]->SetNext(i, x);
  }
}

template <typename Key, class Comparator>
bool SkipList<Key, Comparator>::Contains(const Key& key) const {
  Node* x = FindGreaterOrEqual(key, nullptr);
  return x != nullptr && Equal(key, x->key);
}

}  // namespace storage
}  // namespace iotdb

#endif  // IOTDB_STORAGE_SKIPLIST_H_
