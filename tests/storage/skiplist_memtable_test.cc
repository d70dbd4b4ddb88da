#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/arena.h"
#include "common/random.h"
#include "storage/comparator.h"
#include "storage/dbformat.h"
#include "storage/memtable.h"
#include "storage/skiplist.h"

namespace iotdb {
namespace storage {
namespace {

struct IntComparator {
  int operator()(const uint64_t& a, const uint64_t& b) const {
    if (a < b) return -1;
    if (a > b) return +1;
    return 0;
  }
};

TEST(SkipListTest, EmptyList) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  EXPECT_FALSE(list.Contains(10));

  SkipList<uint64_t, IntComparator>::Iterator iter(&list);
  EXPECT_FALSE(iter.Valid());
  iter.SeekToFirst();
  EXPECT_FALSE(iter.Valid());
  iter.Seek(10);
  EXPECT_FALSE(iter.Valid());
}

TEST(SkipListTest, InsertLookupAndOrderedIteration) {
  const int kN = 2000;
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  std::set<uint64_t> keys;
  Random rng(1234);
  for (int i = 0; i < kN; ++i) {
    uint64_t key = rng.Uniform(10000);
    if (keys.insert(key).second) {
      list.Insert(key);
    }
  }

  for (uint64_t k = 0; k < 10000; ++k) {
    EXPECT_EQ(list.Contains(k), keys.count(k) > 0) << k;
  }

  // Forward iteration matches the sorted set.
  SkipList<uint64_t, IntComparator>::Iterator iter(&list);
  iter.SeekToFirst();
  for (uint64_t expected : keys) {
    ASSERT_TRUE(iter.Valid());
    EXPECT_EQ(iter.key(), expected);
    iter.Next();
  }
  EXPECT_FALSE(iter.Valid());
}

TEST(SkipListTest, SeekFindsLowerBound) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  for (uint64_t k = 0; k < 100; k += 10) list.Insert(k);

  SkipList<uint64_t, IntComparator>::Iterator iter(&list);
  iter.Seek(35);
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.key(), 40u);
  iter.Seek(40);
  ASSERT_TRUE(iter.Valid());
  EXPECT_EQ(iter.key(), 40u);
  iter.Seek(91);
  EXPECT_FALSE(iter.Valid());
}

class MemTableTest : public ::testing::Test {
 protected:
  MemTableTest()
      : icmp_(BytewiseComparator()), mem_(new MemTable(icmp_)) {
    mem_->Ref();
  }
  ~MemTableTest() override { mem_->Unref(); }

  InternalKeyComparator icmp_;
  MemTable* mem_;
};

TEST_F(MemTableTest, AddThenGet) {
  mem_->Add(1, ValueType::kValue, "key", "value");
  std::string value;
  Status s;
  ASSERT_TRUE(mem_->Get("key", 10, &value, &s));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(value, "value");
  EXPECT_EQ(mem_->NumEntries(), 1u);
}

TEST_F(MemTableTest, GetHonoursSnapshotSequence) {
  mem_->Add(5, ValueType::kValue, "key", "v5");
  mem_->Add(9, ValueType::kValue, "key", "v9");

  std::string value;
  Status s;
  // Snapshot at 9 sees the newest.
  ASSERT_TRUE(mem_->Get("key", 9, &value, &s));
  EXPECT_EQ(value, "v9");
  // Snapshot at 7 sees the older version.
  ASSERT_TRUE(mem_->Get("key", 7, &value, &s));
  EXPECT_EQ(value, "v5");
  // Snapshot before the key existed sees nothing.
  EXPECT_FALSE(mem_->Get("key", 4, &value, &s));
}

TEST_F(MemTableTest, DeletionReturnsNotFound) {
  mem_->Add(1, ValueType::kValue, "key", "v");
  mem_->Add(2, ValueType::kDeletion, "key", "");
  std::string value;
  Status s;
  ASSERT_TRUE(mem_->Get("key", 10, &value, &s));
  EXPECT_TRUE(s.IsNotFound());
}

TEST_F(MemTableTest, MissingKeyNotFoundInTable) {
  mem_->Add(1, ValueType::kValue, "aaa", "v");
  std::string value;
  Status s;
  EXPECT_FALSE(mem_->Get("zzz", 10, &value, &s));
}

TEST_F(MemTableTest, IteratorYieldsInternalKeyOrder) {
  mem_->Add(3, ValueType::kValue, "b", "b3");
  mem_->Add(1, ValueType::kValue, "a", "a1");
  mem_->Add(2, ValueType::kValue, "c", "c2");
  mem_->Add(4, ValueType::kValue, "a", "a4");  // newer version of a

  auto iter = mem_->NewIterator();
  iter->SeekToFirst();
  // user key asc, then sequence desc: a@4, a@1, b@3, c@2.
  std::vector<std::pair<std::string, uint64_t>> got;
  while (iter->Valid()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    got.emplace_back(parsed.user_key.ToString(), parsed.sequence);
    iter->Next();
  }
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], (std::pair<std::string, uint64_t>("a", 4)));
  EXPECT_EQ(got[1], (std::pair<std::string, uint64_t>("a", 1)));
  EXPECT_EQ(got[2], (std::pair<std::string, uint64_t>("b", 3)));
  EXPECT_EQ(got[3], (std::pair<std::string, uint64_t>("c", 2)));
}

TEST_F(MemTableTest, MemoryUsageGrows) {
  size_t before = mem_->ApproximateMemoryUsage();
  for (int i = 0; i < 1000; ++i) {
    mem_->Add(i + 1, ValueType::kValue, "key" + std::to_string(i),
              std::string(100, 'v'));
  }
  EXPECT_GT(mem_->ApproximateMemoryUsage(), before + 100 * 1000);
}

TEST(InternalKeyTest, PackAndParse) {
  std::string encoded;
  AppendInternalKey(&encoded, "user_key", 12345, ValueType::kValue);
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(Slice(encoded), &parsed));
  EXPECT_EQ(parsed.user_key.ToString(), "user_key");
  EXPECT_EQ(parsed.sequence, 12345u);
  EXPECT_EQ(parsed.type, ValueType::kValue);
  EXPECT_EQ(ExtractUserKey(Slice(encoded)).ToString(), "user_key");
}

TEST(InternalKeyTest, MalformedKeysRejected) {
  ParsedInternalKey parsed;
  EXPECT_FALSE(ParseInternalKey(Slice("short"), &parsed));
  std::string bad_type(9, '\0');
  // The trailer is little-endian; its low byte (the type tag) is at the
  // start of the final 8 bytes.
  bad_type[1] = 0x7f;  // type byte > kValue
  EXPECT_FALSE(ParseInternalKey(Slice(bad_type), &parsed));
}

TEST(InternalKeyComparatorTest, OrdersUserAscSequenceDesc) {
  InternalKeyComparator icmp(BytewiseComparator());
  std::string a_new, a_old, b_new;
  AppendInternalKey(&a_new, "a", 10, ValueType::kValue);
  AppendInternalKey(&a_old, "a", 5, ValueType::kValue);
  AppendInternalKey(&b_new, "b", 100, ValueType::kValue);

  EXPECT_LT(icmp.Compare(a_new, a_old), 0);  // newer sorts first
  EXPECT_LT(icmp.Compare(a_old, b_new), 0);  // user key dominates
}

}  // namespace
}  // namespace storage
}  // namespace iotdb
