// Sensor catalog, kvp codec, and execution-rule tests.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "iot/kvp.h"
#include "iot/rules.h"
#include "iot/sensor.h"

namespace iotdb {
namespace iot {
namespace {

TEST(SensorCatalogTest, ExactlyTwoHundredSensors) {
  const SensorCatalog& catalog = SensorCatalog::Default();
  EXPECT_EQ(catalog.size(), 200u);
  EXPECT_EQ(SensorCatalog::kSensorsPerSubstation, 200);
}

TEST(SensorCatalogTest, KeysAreUniqueAndWithinFigure7Limits) {
  const SensorCatalog& catalog = SensorCatalog::Default();
  std::set<std::string> keys;
  for (const SensorType& sensor : catalog.sensors()) {
    EXPECT_TRUE(keys.insert(sensor.key).second) << sensor.key;
    EXPECT_GE(sensor.key.size(), 1u);
    EXPECT_LE(sensor.key.size(), 64u);  // Figure 7: sensor key 1-64 chars
    EXPECT_GE(sensor.unit.size(), 3u);
    EXPECT_LE(sensor.unit.size(), 34u);  // Figure 7: unit 4-34 chars
    EXPECT_LT(sensor.min_value, sensor.max_value);
    EXPECT_EQ(sensor.key.find(KvpCodec::kKeySeparator), std::string::npos);
  }
}

TEST(SensorCatalogTest, ContainsThePaperSensorFamilies) {
  const SensorCatalog& catalog = SensorCatalog::Default();
  EXPECT_GE(catalog.IndexOf("ltc_gas_000"), 0);
  EXPECT_GE(catalog.IndexOf("pmu_phasor_000"), 0);
  EXPECT_GE(catalog.IndexOf("leakage_000"), 0);
  EXPECT_GE(catalog.IndexOf("mis_h2_000"), 0);
  EXPECT_EQ(catalog.IndexOf("not_a_sensor"), -1);
}

TEST(KvpCodecTest, EncodedKvpIsExactly1KiB) {
  Reading reading;
  reading.substation_key = "sub0001";
  reading.sensor_key = "pmu_phasor_003";
  reading.timestamp_micros = 1496325600000000ull;
  reading.value = 59.98;
  reading.unit = "hertz";
  Kvp kvp = KvpCodec::Encode(reading, 42);
  EXPECT_EQ(kvp.key.size() + kvp.value.size(), KvpCodec::kKvpBytes);
}

// Pins the padding byte for byte against a bytewise loop over the alphabet,
// for every rotation and for padding lengths below, at and across the
// alphabet's length (the substation key's length sets the padding length).
TEST(KvpCodecTest, PaddingMatchesBytewiseAlphabetLoop) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
  const size_t alphabet_len = sizeof(kAlphabet) - 1;
  ASSERT_EQ(alphabet_len, 63u);
  std::set<size_t> lengths;
  for (size_t substation_len : {1, 868, 931, 932, 933, 994}) {
    Reading reading;
    reading.substation_key.assign(substation_len, 's');
    reading.sensor_key = "x";
    reading.value = 1.0;
    reading.unit = "u";
    for (uint64_t rotation = 0; rotation < alphabet_len; ++rotation) {
      const uint64_t seed = rotation + alphabet_len * 0x9e3779b97f4a7ull;
      Kvp kvp = KvpCodec::Encode(reading, seed);
      const size_t prefix = kvp.value.find('|', kvp.value.find('|') + 1) + 1;
      const size_t len = KvpCodec::kKvpBytes - kvp.key.size() - prefix;
      ASSERT_EQ(kvp.value.size(), prefix + len);
      std::string expected;
      size_t pos = rotation;
      for (size_t i = 0; i < len; ++i) {
        expected.push_back(kAlphabet[pos]);
        pos = (pos + 1) % alphabet_len;
      }
      ASSERT_EQ(kvp.value.substr(prefix), expected)
          << "rotation " << rotation << " length " << len;
      lengths.insert(len);
    }
  }
  EXPECT_EQ(lengths, (std::set<size_t>{1, 62, 63, 64, 127, 994}));
}

TEST(KvpCodecTest, RoundTrip) {
  Reading reading;
  reading.substation_key = "larkin_sf";
  reading.sensor_key = "ltc_gas_011";
  reading.timestamp_micros = 1234567890123456ull;
  reading.value = 1543.2188;
  reading.unit = "ppm";
  Kvp kvp = KvpCodec::Encode(reading, 7);

  auto decoded = KvpCodec::Decode(kvp.key, kvp.value);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Reading& out = decoded.ValueOrDie();
  EXPECT_EQ(out.substation_key, "larkin_sf");
  EXPECT_EQ(out.sensor_key, "ltc_gas_011");
  EXPECT_EQ(out.timestamp_micros, 1234567890123456ull);
  EXPECT_NEAR(out.value, 1543.2188, 1e-4);
  EXPECT_EQ(out.unit, "ppm");

  // The in-place parse gives strtod's double, bit for bit, for every value
  // the encoder writes (%.4f), negatives and zero included.
  for (int64_t i = -2000000; i <= 2000000; i += 997) {
    for (double v : {i / 1e4, i / 7.0, i * 1234.5678}) {
      char buf[64];
      snprintf(buf, sizeof(buf), "%.4f", v);
      const double expected = strtod(buf, nullptr);
      auto parsed =
          KvpCodec::DecodeSensorValue(std::string(buf) + "|unit|pad");
      ASSERT_TRUE(parsed.ok()) << buf;
      ASSERT_EQ(std::bit_cast<uint64_t>(parsed.ValueOrDie()),
                std::bit_cast<uint64_t>(expected))
          << buf;
    }
  }
  for (const char* zero : {"0.0000", "-0.0000"}) {
    auto parsed = KvpCodec::DecodeSensorValue(std::string(zero) + "|u|p");
    ASSERT_TRUE(parsed.ok()) << zero;
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed.ValueOrDie()),
              std::bit_cast<uint64_t>(strtod(zero, nullptr)))
        << zero;
  }
}

TEST(KvpCodecTest, KeysSortByTimeWithinSensor) {
  std::string earlier = KvpCodec::EncodeKey("sub1", "sensor_a", 999);
  std::string later = KvpCodec::EncodeKey("sub1", "sensor_a", 1000);
  std::string much_later =
      KvpCodec::EncodeKey("sub1", "sensor_a", 10000000000000ull);
  EXPECT_LT(earlier, later);
  EXPECT_LT(later, much_later);
}

TEST(KvpCodecTest, ShardPrefixDropsTimestampOnly) {
  std::string key = KvpCodec::EncodeKey("sub42", "leakage_003", 123456);
  Slice prefix = KvpCodec::ShardPrefixOf(key);
  EXPECT_EQ(prefix.ToString(), "sub42.leakage_003");
  // The prefix is shared by all timestamps of the sensor.
  std::string key2 = KvpCodec::EncodeKey("sub42", "leakage_003", 999999);
  EXPECT_EQ(KvpCodec::ShardPrefixOf(key2).ToString(), "sub42.leakage_003");
}

TEST(KvpCodecTest, DecodeTimestampFromRowKey) {
  std::string key = KvpCodec::EncodeKey("s", "x", 77777);
  EXPECT_EQ(KvpCodec::DecodeTimestamp(key).ValueOrDie(), 77777u);
  EXPECT_FALSE(KvpCodec::DecodeTimestamp(Slice("short")).ok());
}

TEST(KvpCodecTest, MalformedInputsRejected) {
  EXPECT_FALSE(KvpCodec::Decode("noseparators", "1.0|u|pad").ok());
  EXPECT_FALSE(KvpCodec::Decode("a.b.123", "1.0|u|p").ok());  // bad ts width
  std::string good_key = KvpCodec::EncodeKey("s", "x", 1);
  EXPECT_FALSE(KvpCodec::Decode(good_key, "novalueseparator").ok());
  EXPECT_FALSE(KvpCodec::DecodeSensorValue("|unit|pad").ok());
  EXPECT_FALSE(KvpCodec::DecodeSensorValue("x1.0|u").ok());
}

TEST(RulesTest, Equation1SystemRate) {
  // 200 sensors/substation * 20 kvps/s = 4000 kvps/s per substation.
  EXPECT_DOUBLE_EQ(Rules::MinimumSystemRate(1), 4000.0);
  EXPECT_DOUBLE_EQ(Rules::MinimumSystemRate(48), 192000.0);
  // 4000 kvps/s * 1 KiB = 4,096,000 B/s = 3.91 MB/s.
  EXPECT_NEAR(Rules::MinimumSystemRateBytes(1) / 1048576.0, 3.91, 0.01);
}

TEST(RulesTest, Equation2WindowRows) {
  // 20 kvps/s * 5 s = 100 kvps per window.
  EXPECT_DOUBLE_EQ(Rules::MinKvpsPerWindow(), 100.0);
  // Both windows: the 200 validity floor of Figure 12.
  EXPECT_DOUBLE_EQ(Rules::kMinKvpsPerQuery, 200.0);
}

TEST(RulesTest, Equation3DriverShares) {
  // K=10, P=3: drivers get 3, 3, 4.
  EXPECT_EQ(Rules::KvpsForDriver(1, 3, 10), 3u);
  EXPECT_EQ(Rules::KvpsForDriver(2, 3, 10), 3u);
  EXPECT_EQ(Rules::KvpsForDriver(3, 3, 10), 4u);

  // Shares always sum to K.
  for (uint64_t k : {1000ull, 999999937ull}) {
    for (int p : {1, 7, 48}) {
      uint64_t total = 0;
      for (int i = 1; i <= p; ++i) total += Rules::KvpsForDriver(i, p, k);
      EXPECT_EQ(total, k) << "P=" << p << " K=" << k;
    }
  }
}

TEST(RulesTest, QueryCadence) {
  // Five queries per 10,000 readings.
  EXPECT_EQ(Rules::kQueriesPerReadings, 5u);
  EXPECT_EQ(Rules::kReadingsPerQueryBatch, 10000u);
  EXPECT_EQ(Rules::kDefaultTotalKvps, 1000000000ull);
}

}  // namespace
}  // namespace iot
}  // namespace iotdb
