#include "iot/driver_instance.h"

#include <utility>
#include <vector>

#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace iotdb {
namespace iot {

namespace {

/// Global `driver.*` registry instruments, aggregated over all driver
/// instances (per-driver query latency is kept in DriverResult).
struct DriverInstruments {
  obs::LatencyHistogram* insert_batch_micros;
  obs::LatencyHistogram* query_micros;
  obs::Counter* ingest_kvps;
  obs::Counter* unavailable_retries;
  obs::Counter* query_count;
  obs::Counter* query_rows;
};

DriverInstruments& Instruments() {
  static DriverInstruments instruments = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return DriverInstruments{
        registry.GetHistogram("driver.insert_batch_micros"),
        registry.GetHistogram("driver.query_micros"),
        registry.GetCounter("driver.ingest.kvps"),
        registry.GetCounter("driver.ingest.unavailable_retries"),
        registry.GetCounter("driver.query.count"),
        registry.GetCounter("driver.query.rows")};
  }();
  return instruments;
}

}  // namespace

DriverInstance::DriverInstance(const DriverOptions& options, ycsb::DB* db)
    : options_(options), db_(db) {
  if (options_.clock == nullptr) options_.clock = Clock::Real();
  if (options_.batch_size == 0) options_.batch_size = 1;
}

DriverResult DriverInstance::Run(std::atomic<bool>* abort) {
  DriverResult result;
  result.substation_key = options_.substation_key;

  Clock* clock = options_.clock;
  DataGenerator generator(options_.substation_key, options_.total_kvps,
                          options_.seed, clock);
  QueryGenerator query_generator(options_.substation_key, options_.seed,
                                 clock);
  QueryExecutor executor(db_);

  result.start_micros = clock->NowMicros();
  uint64_t next_query_marker = Rules::kReadingsPerQueryBatch;

  std::vector<std::pair<std::string, std::string>> batch;
  batch.reserve(options_.batch_size);

  while (generator.HasNext()) {
    if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
      result.status = Status::Aborted("driver aborted");
      break;
    }

    batch.clear();
    while (generator.HasNext() && batch.size() < options_.batch_size) {
      Kvp kvp = generator.Next();
      batch.emplace_back(std::move(kvp.key), std::move(kvp.value));
    }

    // The op's causal identity: minted here (the op's entry point), carried
    // by the thread-local context through the storage and replication
    // layers, and recorded with every hop's span so the trace export links
    // the whole replicated write as one flow. The breadcrumb collects the
    // op's per-stage latencies; at completion they feed the attribution
    // histograms and the slow-op flight recorder.
    const bool tracing = obs::TraceBuffer::Enabled();
    obs::TraceContext op_ctx;
    if (tracing) op_ctx = obs::TraceContext::Mint();
    obs::ScopedOpBreadcrumb breadcrumb("driver.insert_batch",
                                       op_ctx.trace_id, batch.size());
    obs::ScopedTraceContext ctx_scope(op_ctx);

    uint64_t t0 = clock->NowMicros();
    Status s = db_->InsertBatch(batch);
    // A quorum-lost or deadline-expired write is a transient availability
    // failure (e.g. a network partition mid-run), not data loss: the batch
    // was never acknowledged, so resubmitting it is safe. Retry a bounded
    // number of times with backoff before giving up on the whole run.
    for (int retry = 0;
         !s.ok() && (s.IsUnavailable() || s.IsTimedOut()) && retry < 5;
         ++retry) {
      if (abort != nullptr && abort->load(std::memory_order_relaxed)) break;
      Instruments().unavailable_retries->Increment();
      obs::AddStageMicros(obs::Stage::kRetryBackoff, 1000u << retry);
      clock->SleepMicros(1000u << retry);
      s = db_->InsertBatch(batch);
    }
    uint64_t insert_elapsed = clock->NowMicros() - t0;
    if (!s.ok()) {
      result.status = s;
      break;
    }
    Instruments().insert_batch_micros->Record(insert_elapsed);
    Instruments().ingest_kvps->Add(batch.size());
    breadcrumb.Complete(t0, insert_elapsed);
    // Reuses the timestamps already taken for the latency histogram — the
    // trace costs no extra clock reads on the ingest hot path.
    if (tracing) {
      obs::TraceBuffer::Record("driver.insert_batch", t0, insert_elapsed,
                               op_ctx, "kvps", batch.size());
    }
    result.kvps_ingested += batch.size();

    // Five queries for every 10,000 ingested readings, issued concurrently
    // with continued ingestion by the other drivers.
    while (result.kvps_ingested >= next_query_marker) {
      for (uint64_t q = 0; q < Rules::kQueriesPerReadings; ++q) {
        Query query = query_generator.Next();
        uint64_t q0 = clock->NowMicros();
        auto query_result = executor.Execute(query);
        uint64_t query_elapsed = clock->NowMicros() - q0;
        if (!query_result.ok()) {
          result.status = query_result.status();
          break;
        }
        result.queries_executed++;
        result.query_rows_read += query_result.ValueOrDie().rows_read;
        result.query_latency_micros.Record(query_elapsed);
        Instruments().query_micros->Record(query_elapsed);
        Instruments().query_count->Increment();
        Instruments().query_rows->Add(query_result.ValueOrDie().rows_read);
        obs::TraceBuffer::Record("driver.query", q0, query_elapsed, "rows",
                                 query_result.ValueOrDie().rows_read);
      }
      if (!result.status.ok()) break;
      next_query_marker += Rules::kReadingsPerQueryBatch;
    }
    if (!result.status.ok()) break;
  }

  result.end_micros = clock->NowMicros();
  return result;
}

}  // namespace iot
}  // namespace iotdb
