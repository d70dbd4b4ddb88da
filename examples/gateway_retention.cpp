// Gateway data-retention scenario: the paper (§I) describes gateways as
// *short-term* stores — data is forwarded to the datacenter (e.g., daily)
// and old readings age out of the gateway. This example wires the
// SensorDataRetentionFilter into a node's compaction path and shows a day
// of data shrinking to the retention window.
//
// Run: ./build/examples/gateway_retention
#include <cstdio>

#include "common/clock.h"
#include "iot/kvp.h"
#include "iot/retention.h"
#include "storage/env.h"
#include "storage/kvstore.h"

using namespace iotdb;  // NOLINT — example brevity

int main() {
  constexpr uint64_t kMicros = 1000000;
  constexpr uint64_t kHour = 3600 * kMicros;

  // Simulated "now": end of a 24-hour day; the gateway keeps 2 hours.
  ManualClock clock(24 * kHour);
  iot::SensorDataRetentionFilter retention(2 * kHour, &clock);

  auto env = storage::NewMemEnv();
  storage::Options options;
  options.env = env.get();
  options.compaction_filter = &retention;
  auto store =
      storage::KVStore::Open(options, "/gateway").MoveValueUnsafe();

  // Ingest one reading per minute per sensor for 4 sensors over 24 hours.
  printf("Ingesting 24h of data (4 sensors, 1 reading/min each)...\n");
  const char* sensors[] = {"pmu_freq_000", "ltc_gas_000", "leakage_000",
                           "vibration_000"};
  uint64_t ingested = 0;
  for (uint64_t t = 0; t < 24 * kHour; t += 60 * kMicros) {
    for (const char* sensor : sensors) {
      iot::Reading reading;
      reading.substation_key = "larkin_sf";
      reading.sensor_key = sensor;
      reading.timestamp_micros = t;
      reading.value = 42.0;
      reading.unit = "unit";
      iot::Kvp kvp = iot::KvpCodec::Encode(reading, t);
      if (!store->Put(storage::WriteOptions(), kvp.key, kvp.value).ok()) {
        return 1;
      }
      ++ingested;
    }
  }
  printf("  %llu readings stored (%.1f MiB logical)\n",
         static_cast<unsigned long long>(ingested),
         ingested * 1024.0 / (1 << 20));
  printf("  live keys before compaction: %llu\n",
         static_cast<unsigned long long>(store->CountKeysSlow()));

  printf("\nRunning compaction with a 2-hour retention window...\n");
  if (!store->CompactAll().ok()) return 1;

  uint64_t remaining = store->CountKeysSlow();
  printf("  live keys after compaction:  %llu (expected ~%d: last 2h x 4 "
         "sensors x 60/min)\n",
         static_cast<unsigned long long>(remaining), 2 * 60 * 4);

  auto stats = store->GetStats();
  printf("  compactions run: %llu, bytes rewritten: %.1f MiB\n",
         static_cast<unsigned long long>(stats.compactions),
         stats.bytes_compacted / 1048576.0);
  // A vlog file goes once no table links it. This day is one flush whose
  // two vlog files each still hold live rows, so both stay whole.
  printf("  live vlog files: %llu, %llu B (of %llu B appended)\n",
         static_cast<unsigned long long>(stats.vlog_files),
         static_cast<unsigned long long>(stats.vlog_bytes),
         static_cast<unsigned long long>(stats.vlog_appended_bytes));

  // The freshest reading is still servable.
  std::string newest_key = iot::KvpCodec::EncodeKey(
      "larkin_sf", "pmu_freq_000", 24 * kHour - 60 * kMicros);
  bool fresh_ok =
      store->Get(storage::ReadOptions(), newest_key).ok();
  // An aged-out reading is gone.
  std::string old_key =
      iot::KvpCodec::EncodeKey("larkin_sf", "pmu_freq_000", 0);
  bool old_gone =
      store->Get(storage::ReadOptions(), old_key).status().IsNotFound();
  printf("  newest reading readable: %s, midnight reading aged out: %s\n",
         fresh_ok ? "yes" : "NO", old_gone ? "yes" : "NO");
  return fresh_ok && old_gone ? 0 : 1;
}
