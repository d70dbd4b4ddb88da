// Workload-generation micro-benchmarks (google-benchmark): the cost of the
// TPCx-IoT kvp generation path (the Figure 8 inner loop) and of query
// generation.
#include <benchmark/benchmark.h>

#include "common/clock.h"
#include "iot/data_generator.h"
#include "iot/query.h"

namespace {

using iotdb::ManualClock;
using iotdb::iot::DataGenerator;
using iotdb::iot::Kvp;
using iotdb::iot::QueryGenerator;

void BM_KvpGeneration(benchmark::State& state) {
  ManualClock clock(0);
  DataGenerator generator("sub0001", ~0ull >> 1, 7, &clock);
  for (auto _ : state) {
    clock.Advance(5);
    Kvp kvp = generator.Next();
    benchmark::DoNotOptimize(kvp.key.data());
    benchmark::DoNotOptimize(kvp.value.data());
  }
  state.SetBytesProcessed(state.iterations() * 1024);
  state.counters["kvps/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KvpGeneration);

void BM_ReadingGenerationOnly(benchmark::State& state) {
  ManualClock clock(0);
  DataGenerator generator("sub0001", ~0ull >> 1, 7, &clock);
  for (auto _ : state) {
    clock.Advance(5);
    benchmark::DoNotOptimize(generator.NextReading());
  }
}
BENCHMARK(BM_ReadingGenerationOnly);

void BM_QueryGeneration(benchmark::State& state) {
  ManualClock clock(1ull << 41);
  QueryGenerator generator("sub0001", 7, &clock);
  for (auto _ : state) {
    clock.Advance(1000);
    benchmark::DoNotOptimize(generator.Next());
  }
}
BENCHMARK(BM_QueryGeneration);

}  // namespace

BENCHMARK_MAIN();
