#include "obs/attribution.h"

#include "obs/metrics.h"
#include "obs/slowops.h"

namespace iotdb {
namespace obs {

namespace internal {
thread_local constinit OpBreadcrumb* tls_breadcrumb = nullptr;
}  // namespace internal

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kCommitQueueWait: return "commit_queue_wait";
    case Stage::kVlog: return "vlog";
    case Stage::kWalSync: return "wal_sync";
    case Stage::kCommitWait: return "commit_wait";
    case Stage::kFanoutSend: return "fanout_send";
    case Stage::kQuorumWait: return "quorum_wait";
    case Stage::kRetryBackoff: return "retry_backoff";
  }
  return "unknown";
}

bool IsClusterStage(Stage stage) {
  switch (stage) {
    case Stage::kFanoutSend:
    case Stage::kQuorumWait:
    case Stage::kRetryBackoff:
      return true;
    default:
      return false;
  }
}

namespace {

struct AttributionInstruments {
  std::array<LatencyHistogram*, kNumStages> stages;

  AttributionInstruments() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    for (int i = 0; i < kNumStages; ++i) {
      stages[i] = registry.GetHistogram(
          std::string("attrib.") + StageName(static_cast<Stage>(i)) +
          "_micros");
    }
  }
};

AttributionInstruments& Instruments() {
  static AttributionInstruments* instruments = new AttributionInstruments();
  return *instruments;
}

}  // namespace

ScopedOpBreadcrumb::ScopedOpBreadcrumb(const char* op, uint64_t trace_id,
                                       uint64_t kvps) {
  breadcrumb_.op = op;
  breadcrumb_.trace_id = trace_id;
  breadcrumb_.kvps = kvps;
  prev_ = internal::tls_breadcrumb;
  internal::tls_breadcrumb = &breadcrumb_;
}

ScopedOpBreadcrumb::~ScopedOpBreadcrumb() {
  internal::tls_breadcrumb = prev_;
}

void ScopedOpBreadcrumb::Complete(uint64_t start_micros,
                                  uint64_t total_micros) {
  if (completed_) return;
  completed_ = true;
  breadcrumb_.start_micros = start_micros;
  breadcrumb_.total_micros = total_micros;
  // Only stages the op actually passed through enter the distributions: a
  // zero slot means "stage not on this op's path" (e.g. no vlog when value
  // separation is off), not an observed zero-latency pass.
  AttributionInstruments& instruments = Instruments();
  for (int i = 0; i < kNumStages; ++i) {
    if (breadcrumb_.stage_micros[i] != 0) {
      instruments.stages[i]->Record(breadcrumb_.stage_micros[i]);
    }
  }
  SlowOpRecorder::Offer(breadcrumb_);
}

}  // namespace obs
}  // namespace iotdb
