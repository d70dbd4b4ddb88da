#include "storage/env.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"

namespace iotdb {
namespace storage {
namespace {

class MemEnvTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }
  std::unique_ptr<Env> env_;
};

TEST_F(MemEnvTest, WriteThenReadBack) {
  ASSERT_TRUE(env_->WriteStringToFile("/dir/file", "hello world").ok());
  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString("/dir/file", &contents).ok());
  EXPECT_EQ(contents, "hello world");
  EXPECT_TRUE(env_->FileExists("/dir/file"));
  EXPECT_FALSE(env_->FileExists("/dir/other"));
  EXPECT_EQ(env_->FileSize("/dir/file").ValueOrDie(), 11u);
}

TEST_F(MemEnvTest, AppendAccumulates) {
  auto file = env_->NewWritableFile("/f").MoveValueUnsafe();
  ASSERT_TRUE(file->Append("abc").ok());
  ASSERT_TRUE(file->Append("def").ok());
  ASSERT_TRUE(file->Close().ok());
  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString("/f", &contents).ok());
  EXPECT_EQ(contents, "abcdef");
}

TEST_F(MemEnvTest, RandomAccessReads) {
  ASSERT_TRUE(env_->WriteStringToFile("/f", "0123456789").ok());
  auto file = env_->NewRandomAccessFile("/f").MoveValueUnsafe();
  char scratch[16];
  Slice result;
  ASSERT_TRUE(file->Read(3, 4, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "3456");
  // Read past EOF truncates.
  ASSERT_TRUE(file->Read(8, 10, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "89");
  ASSERT_TRUE(file->Read(100, 10, &result, scratch).ok());
  EXPECT_TRUE(result.empty());
  EXPECT_EQ(file->Size(), 10u);
}

TEST_F(MemEnvTest, SequentialReadAndSkip) {
  ASSERT_TRUE(env_->WriteStringToFile("/f", "abcdefghij").ok());
  auto file = env_->NewSequentialFile("/f").MoveValueUnsafe();
  char scratch[16];
  Slice result;
  ASSERT_TRUE(file->Read(3, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "abc");
  ASSERT_TRUE(file->Skip(4).ok());
  ASSERT_TRUE(file->Read(10, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "hij");
}

TEST_F(MemEnvTest, ListDirIsShallow) {
  ASSERT_TRUE(env_->WriteStringToFile("/db/a.sst", "x").ok());
  ASSERT_TRUE(env_->WriteStringToFile("/db/b.log", "x").ok());
  ASSERT_TRUE(env_->WriteStringToFile("/db/sub/c.sst", "x").ok());
  ASSERT_TRUE(env_->WriteStringToFile("/other/d.sst", "x").ok());
  auto listing = env_->ListDir("/db").ValueOrDie();
  std::sort(listing.begin(), listing.end());
  ASSERT_EQ(listing.size(), 2u);
  EXPECT_EQ(listing[0], "a.sst");
  EXPECT_EQ(listing[1], "b.log");
}

TEST_F(MemEnvTest, RenameAndRemove) {
  ASSERT_TRUE(env_->WriteStringToFile("/f1", "data").ok());
  ASSERT_TRUE(env_->RenameFile("/f1", "/f2").ok());
  EXPECT_FALSE(env_->FileExists("/f1"));
  EXPECT_TRUE(env_->FileExists("/f2"));
  ASSERT_TRUE(env_->RemoveFile("/f2").ok());
  EXPECT_FALSE(env_->FileExists("/f2"));
  EXPECT_FALSE(env_->RemoveFile("/f2").ok());
}

TEST_F(MemEnvTest, RenameOntoItselfKeepsTheFile) {
  ASSERT_TRUE(env_->WriteStringToFile("/f", "data").ok());
  ASSERT_TRUE(env_->RenameFile("/f", "/f").ok());
  ASSERT_TRUE(env_->FileExists("/f"));
  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString("/f", &contents).ok());
  EXPECT_EQ(contents, "data");
}

constexpr size_t kChunk = kMemEnvChunkSize;

// The byte at file offset `pos` in every file these tests write.
char PatternByte(uint64_t pos) {
  return static_cast<char>((pos * 131 + 7) % 251);
}

std::string Pattern(uint64_t pos, size_t n) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; ++i) out[i] = PatternByte(pos + i);
  return out;
}

TEST_F(MemEnvTest, AppendsAndReadsCrossChunkBoundaries) {
  for (size_t size : {kChunk - 1, kChunk, kChunk + 1, 3 * kChunk + 7}) {
    SCOPED_TRACE(size);
    const std::string expected = Pattern(0, size);
    // Uneven appends, so that some of them straddle a chunk boundary.
    auto writer = env_->NewWritableFile("/f").MoveValueUnsafe();
    for (size_t pos = 0; pos < size;) {
      const size_t len = std::min<size_t>(size - pos, 1000 + pos % 4099);
      ASSERT_TRUE(writer->Append(Slice(expected.data() + pos, len)).ok());
      pos += len;
    }
    ASSERT_TRUE(writer->Close().ok());
    EXPECT_EQ(env_->FileSize("/f").ValueOrDie(), size);

    std::string contents;
    ASSERT_TRUE(env_->ReadFileToString("/f", &contents).ok());
    EXPECT_EQ(contents, expected);

    auto seq = env_->NewSequentialFile("/f").MoveValueUnsafe();
    std::string scratch(kChunk + 2, '\0');
    contents.clear();
    for (;;) {
      Slice piece;
      ASSERT_TRUE(seq->Read(1237, &piece, scratch.data()).ok());
      if (piece.empty()) break;
      contents.append(piece.data(), piece.size());
    }
    EXPECT_EQ(contents, expected);

    auto file = env_->NewRandomAccessFile("/f").MoveValueUnsafe();
    EXPECT_EQ(file->Size(), size);
    std::string big(size, '\0');
    Slice result;
    ASSERT_TRUE(file->Read(0, size, &result, big.data()).ok());
    EXPECT_EQ(result.ToString(), expected);
    // Ranges ending at, starting at and straddling every chunk boundary.
    for (size_t edge = kChunk; edge <= size; edge += kChunk) {
      for (auto [offset, n] : {std::pair<size_t, size_t>{edge - 5, 5},
                               {edge, 5},
                               {edge - 5, 10},
                               {edge - 1, kChunk + 2}}) {
        ASSERT_TRUE(file->Read(offset, n, &result, scratch.data()).ok());
        const size_t len = std::min(n, size - std::min(offset, size));
        EXPECT_EQ(result.ToString(), expected.substr(offset, len))
            << "offset " << offset << " n " << n;
      }
    }
  }
}

TEST_F(MemEnvTest, ReadSliceOutlivesAppendsAndRemoval) {
  auto writer = env_->NewWritableFile("/f").MoveValueUnsafe();
  ASSERT_TRUE(writer->Append(Pattern(0, kChunk + 100)).ok());
  auto file = env_->NewRandomAccessFile("/f").MoveValueUnsafe();
  char scratch[200];
  Slice early;
  ASSERT_TRUE(file->Read(kChunk - 150, 100, &early, scratch).ok());
  EXPECT_NE(early.data(), scratch);  // in place: the range is in one chunk
  Slice tail;
  ASSERT_TRUE(file->Read(kChunk + 10, 90, &tail, scratch + 100).ok());

  // Appends fill the rest of the tail chunk and add more chunks.
  for (int i = 0; i < 40; ++i) {
    const uint64_t pos = kChunk + 100 + static_cast<uint64_t>(i) * 5000;
    ASSERT_TRUE(writer->Append(Pattern(pos, 5000)).ok());
  }
  EXPECT_EQ(early.ToString(), Pattern(kChunk - 150, 100));
  EXPECT_EQ(tail.ToString(), Pattern(kChunk + 10, 90));

  // Remove the file while the handle is open; a new file may take freed
  // chunks, but not the ones the open handle still holds.
  writer.reset();
  ASSERT_TRUE(env_->RemoveFile("/f").ok());
  ASSERT_TRUE(env_->WriteStringToFile("/g", std::string(8 * kChunk, 'x')).ok());
  EXPECT_EQ(early.ToString(), Pattern(kChunk - 150, 100));
  EXPECT_EQ(tail.ToString(), Pattern(kChunk + 10, 90));
  Slice again;
  ASSERT_TRUE(file->Read(3 * kChunk, 50, &again, scratch).ok());
  EXPECT_EQ(again.ToString(), Pattern(3 * kChunk, 50));
}

TEST_F(MemEnvTest, OverwriteShowsInTheNextReadNotInAnEarlierSlice) {
  const size_t size = 2 * kChunk + 500;
  std::string expected = Pattern(0, size);
  auto writer = env_->NewWritableFile("/f").MoveValueUnsafe();
  ASSERT_TRUE(writer->Append(expected).ok());
  auto file = env_->NewRandomAccessFile("/f").MoveValueUnsafe();
  char scratch[16];
  Slice before;
  ASSERT_TRUE(file->Read(kChunk - 20, 5, &before, scratch).ok());

  // One overwrite inside a chunk, one across a boundary, and one in the
  // partly filled last chunk.
  for (auto [offset, bytes] : {std::pair<size_t, std::string>{kChunk - 20,
                                                               "XXXXX"},
                               {kChunk - 2, "abcd"},
                               {2 * kChunk + 400, "zz"}}) {
    ASSERT_TRUE(env_->OverwriteFileRange("/f", offset, bytes).ok());
    expected.replace(offset, bytes.size(), bytes);
  }
  EXPECT_EQ(before.ToString(), Pattern(kChunk - 20, 5));

  Slice after;
  ASSERT_TRUE(file->Read(kChunk - 20, 5, &after, scratch).ok());
  EXPECT_EQ(after.ToString(), "XXXXX");
  ASSERT_TRUE(file->Read(kChunk - 4, 8, &after, scratch).ok());
  EXPECT_EQ(after.ToString(), expected.substr(kChunk - 4, 8));
  EXPECT_EQ(file->Size(), size);
  EXPECT_TRUE(env_->OverwriteFileRange("/f", size - 1, "ab")
                  .IsInvalidArgument());

  // Appends after an overwrite of the last chunk land after its bytes.
  ASSERT_TRUE(writer->Append("tail").ok());
  expected += "tail";
  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString("/f", &contents).ok());
  EXPECT_EQ(contents, expected);
}

TEST_F(MemEnvTest, ConcurrentAppendReadAndOverwriteStayConsistent) {
  // One appender, three readers that check returned bytes after the file's
  // lock has dropped (and again after later reads), and one overwriter that
  // rewrites ranges with the bytes they already hold, so every read must
  // see the pattern.
  auto writer = env_->NewWritableFile("/f").MoveValueUnsafe();
  ASSERT_TRUE(writer->Append(Pattern(0, 4096)).ok());
  auto file = env_->NewRandomAccessFile("/f").MoveValueUnsafe();
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};

  std::thread appender([&] {
    uint64_t pos = 4096;
    for (int i = 0; i < 1500; ++i) {
      const size_t len = 700 + (i * 37) % 900;
      if (!writer->Append(Pattern(pos, len)).ok()) bad++;
      pos += len;
      std::this_thread::yield();
    }
    done = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Random rng(100 + r);
      std::string scratch(4000, '\0');
      std::string held_scratch(4000, '\0');
      Slice held;
      uint64_t held_offset = 0;
      for (int i = 0; !done || i < 300; ++i) {
        const uint64_t size = file->Size();
        const uint64_t offset = rng.Uniform(size);
        const size_t n = 1 + rng.Uniform(4000);
        for (size_t j = 0; j < held.size(); ++j) {
          if (held.data()[j] != PatternByte(held_offset + j)) bad++;
        }
        // Odd reads may fill held_scratch, so `held` is checked first.
        char* buf = (i % 2 == 0) ? scratch.data() : held_scratch.data();
        Slice got;
        if (!file->Read(offset, n, &got, buf).ok()) bad++;
        if (got.size() < std::min<uint64_t>(n, size - offset)) bad++;
        for (size_t j = 0; j < got.size(); ++j) {
          if (got.data()[j] != PatternByte(offset + j)) bad++;
        }
        if (i % 2 == 1) {
          held = got;
          held_offset = offset;
        }
      }
    });
  }
  std::thread overwriter([&] {
    Random rng(99);
    for (int i = 0; !done || i < 100; ++i) {
      const uint64_t size = file->Size();
      const uint64_t offset = rng.Uniform(size);
      const size_t n = std::min<uint64_t>(1 + rng.Uniform(3000), size - offset);
      if (!env_->OverwriteFileRange("/f", offset, Pattern(offset, n)).ok()) {
        bad++;
      }
    }
  });
  appender.join();
  for (auto& t : readers) t.join();
  overwriter.join();
  EXPECT_EQ(bad.load(), 0);

  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString("/f", &contents).ok());
  EXPECT_EQ(contents, Pattern(0, file->Size()));
}

TEST_F(MemEnvTest, MissingFilesAreErrors) {
  EXPECT_FALSE(env_->NewRandomAccessFile("/missing").ok());
  EXPECT_FALSE(env_->NewSequentialFile("/missing").ok());
  EXPECT_FALSE(env_->FileSize("/missing").ok());
}

TEST(PosixEnvTest, RoundTripInTempDir) {
  Env* env = Env::Posix();
  std::string dir =
      (std::filesystem::temp_directory_path() / "iotdb_env_test").string();
  ASSERT_TRUE(env->CreateDir(dir).ok());
  std::string path = dir + "/file.txt";
  ASSERT_TRUE(env->WriteStringToFile(path, "posix data").ok());
  std::string contents;
  ASSERT_TRUE(env->ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "posix data");
  EXPECT_TRUE(env->FileExists(path));
  auto listing = env->ListDir(dir).ValueOrDie();
  EXPECT_NE(std::find(listing.begin(), listing.end(), "file.txt"),
            listing.end());
  ASSERT_TRUE(env->RemoveFile(path).ok());
}

}  // namespace
}  // namespace storage
}  // namespace iotdb
