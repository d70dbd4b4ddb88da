#include "iot/kvp.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace iotdb {
namespace iot {

namespace {

/// Cheap deterministic padding: repeats a printable alphabet with a
/// seed-dependent rotation, so padding differs between kvps without
/// spending RNG time per byte (generation speed is measured by Figure 8).
/// Appended in runs of the alphabet, not byte by byte: the driver pads every
/// kvp of a batch between inserts.
void AppendPadding(std::string* out, size_t len, uint64_t seed) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
  const size_t alphabet_len = sizeof(kAlphabet) - 1;
  size_t pos = static_cast<size_t>(seed % alphabet_len);
  while (len > 0) {
    const size_t run = std::min(len, alphabet_len - pos);
    out->append(kAlphabet + pos, run);
    len -= run;
    pos = 0;
  }
}

}  // namespace

std::string KvpCodec::EncodeKey(const Slice& substation_key,
                                const Slice& sensor_key,
                                uint64_t timestamp_micros) {
  std::string key;
  key.reserve(substation_key.size() + sensor_key.size() +
              kTimestampDigits + 2);
  key.append(substation_key.data(), substation_key.size());
  key.push_back(kKeySeparator);
  key.append(sensor_key.data(), sensor_key.size());
  key.push_back(kKeySeparator);
  char ts[kTimestampDigits + 1];
  snprintf(ts, sizeof(ts), "%017" PRIu64, timestamp_micros);
  key.append(ts, kTimestampDigits);
  return key;
}

Slice KvpCodec::ShardPrefixOf(const Slice& row_key) {
  // Strip the trailing ".<timestamp>".
  if (row_key.size() <= kTimestampDigits + 1) return row_key;
  return Slice(row_key.data(),
               row_key.size() - (kTimestampDigits + 1));
}

Kvp KvpCodec::Encode(const Reading& reading, uint64_t padding_seed) {
  Kvp kvp;
  kvp.key = EncodeKey(reading.substation_key, reading.sensor_key,
                      reading.timestamp_micros);

  char value_buf[32];
  int value_len = snprintf(value_buf, sizeof(value_buf), "%.4f",
                           reading.value);
  kvp.value.reserve(kKvpBytes - kvp.key.size());
  kvp.value.append(value_buf, value_len);
  kvp.value.push_back(kValueSeparator);
  kvp.value.append(reading.unit);
  kvp.value.push_back(kValueSeparator);

  size_t used = kvp.key.size() + kvp.value.size();
  assert(used < kKvpBytes && "substation/sensor keys too long for 1KiB kvp");
  AppendPadding(&kvp.value, kKvpBytes - used, padding_seed);
  return kvp;
}

Result<Reading> KvpCodec::Decode(const Slice& key, const Slice& value) {
  Reading reading;
  // Key: substation '.' sensor '.' timestamp(17 digits). Substation keys may
  // themselves not contain the separator (enforced by the driver).
  const char* data = key.data();
  const char* end = data + key.size();
  const char* first = static_cast<const char*>(
      memchr(data, kKeySeparator, key.size()));
  if (first == nullptr) return Status::Corruption("kvp key has no separator");
  const char* second = static_cast<const char*>(
      memchr(first + 1, kKeySeparator, end - first - 1));
  if (second == nullptr) {
    return Status::Corruption("kvp key has no second separator");
  }
  if (end - second - 1 != kTimestampDigits) {
    return Status::Corruption("kvp key timestamp malformed");
  }
  reading.substation_key.assign(data, first - data);
  reading.sensor_key.assign(first + 1, second - first - 1);
  reading.timestamp_micros = strtoull(second + 1, nullptr, 10);

  IOTDB_ASSIGN_OR_RETURN(reading.value, DecodeSensorValue(value));
  const char* vdata = value.data();
  const char* vsep = static_cast<const char*>(
      memchr(vdata, kValueSeparator, value.size()));
  const char* vend = vdata + value.size();
  const char* usep = static_cast<const char*>(
      memchr(vsep + 1, kValueSeparator, vend - vsep - 1));
  if (usep == nullptr) return Status::Corruption("kvp value has no unit");
  reading.unit.assign(vsep + 1, usep - vsep - 1);
  return reading;
}

Result<double> KvpCodec::DecodeSensorValue(const Slice& value) {
  const char* sep = static_cast<const char*>(
      memchr(value.data(), kValueSeparator, value.size()));
  if (sep == nullptr || sep == value.data()) {
    return Status::Corruption("kvp value has no sensor value");
  }
  // Parsed where it lies: from_chars needs no terminator and reads nothing
  // past the separator. The whole field must be the number.
  double v = 0;
  const auto [parse_end, ec] = std::from_chars(value.data(), sep, v);
  if (ec != std::errc() || parse_end != sep) {
    return Status::Corruption("bad sensor value");
  }
  return v;
}

Result<uint64_t> KvpCodec::DecodeTimestamp(const Slice& row_key) {
  if (row_key.size() < static_cast<size_t>(kTimestampDigits) + 1) {
    return Status::Corruption("row key too short for timestamp");
  }
  const char* ts = row_key.data() + row_key.size() - kTimestampDigits;
  if (ts[-1] != kKeySeparator) {
    return Status::Corruption("row key timestamp not delimited");
  }
  char buf[kTimestampDigits + 1];
  memcpy(buf, ts, kTimestampDigits);
  buf[kTimestampDigits] = '\0';
  return static_cast<uint64_t>(strtoull(buf, nullptr, 10));
}

}  // namespace iot
}  // namespace iotdb
