#include <gtest/gtest.h>

#include <string>

#include "common/crc32c.h"
#include "common/md5.h"

namespace iotdb {
namespace {

// Known-answer tests against the CRC32C reference vectors (RFC 3720).
TEST(Crc32cTest, KnownVectors) {
  char zeros[32];
  memset(zeros, 0, sizeof(zeros));
  EXPECT_EQ(crc32c::Value(zeros, sizeof(zeros)), 0x8a9136aaU);

  char ones[32];
  memset(ones, 0xff, sizeof(ones));
  EXPECT_EQ(crc32c::Value(ones, sizeof(ones)), 0x62a8ab43U);

  char ascending[32];
  for (int i = 0; i < 32; i++) ascending[i] = static_cast<char>(i);
  EXPECT_EQ(crc32c::Value(ascending, sizeof(ascending)), 0x46dd794eU);
}

TEST(Crc32cTest, DistinguishesValues) {
  EXPECT_NE(crc32c::Value("a", 1), crc32c::Value("foo", 3));
  EXPECT_NE(crc32c::Value("a", 1), crc32c::Value("b", 1));
}

TEST(Crc32cTest, ExtendEqualsConcatenation) {
  std::string hello = "hello ";
  std::string world = "world";
  std::string both = hello + world;
  EXPECT_EQ(crc32c::Value(both.data(), both.size()),
            crc32c::Extend(crc32c::Value(hello.data(), hello.size()),
                           world.data(), world.size()));
}

// The sliced implementation against a plain bytewise loop, over every
// length and alignment the 8-byte stride and its tail can meet, chained
// through Extend from arbitrary prior CRCs.
TEST(Crc32cTest, MatchesBytewiseReference) {
  auto reference = [](uint32_t init, const char* data, size_t n) {
    uint32_t crc = init ^ 0xffffffffu;
    for (size_t i = 0; i < n; ++i) {
      crc ^= static_cast<unsigned char>(data[i]);
      for (int j = 0; j < 8; ++j) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
      }
    }
    return crc ^ 0xffffffffu;
  };
  std::string buf(4096 + 16, '\0');
  uint32_t seed = 12345;
  for (char& c : buf) {
    seed = seed * 1103515245u + 12345u;
    c = static_cast<char>(seed >> 16);
  }
  uint32_t init = 0;
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 80; ++n) {
      ASSERT_EQ(crc32c::Extend(init, buf.data() + offset, n),
                reference(init, buf.data() + offset, n))
          << "offset " << offset << " length " << n;
      init = crc32c::Extend(init, buf.data() + offset, n);
    }
    ASSERT_EQ(crc32c::Value(buf.data() + offset, 4096),
              reference(0, buf.data() + offset, 4096));
  }
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  uint32_t crc = crc32c::Value("foo", 3);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_NE(crc, crc32c::Mask(crc32c::Mask(crc)));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
}

// RFC 1321 test suite.
TEST(Md5Test, Rfc1321Vectors) {
  EXPECT_EQ(Md5::HexDigest(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(Md5::HexDigest("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(Md5::HexDigest("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(Md5::HexDigest("message digest"),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(Md5::HexDigest("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      Md5::HexDigest("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                     "0123456789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(
      Md5::HexDigest("1234567890123456789012345678901234567890123456789012"
                     "3456789012345678901234567890"),
      "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, StreamingMatchesOneShot) {
  std::string data(100000, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 + 7);
  }
  Md5 streaming;
  // Feed in uneven chunks crossing the 64-byte block boundary many ways.
  size_t pos = 0;
  size_t chunk = 1;
  while (pos < data.size()) {
    size_t n = std::min(chunk, data.size() - pos);
    streaming.Update(data.data() + pos, n);
    pos += n;
    chunk = (chunk * 3 + 1) % 200 + 1;
  }
  auto digest = streaming.Finish();

  std::string one_shot_hex = Md5::HexDigest(data);
  static const char kHex[] = "0123456789abcdef";
  std::string streaming_hex;
  for (uint8_t b : digest) {
    streaming_hex.push_back(kHex[b >> 4]);
    streaming_hex.push_back(kHex[b & 0xf]);
  }
  EXPECT_EQ(streaming_hex, one_shot_hex);
}

}  // namespace
}  // namespace iotdb
