#ifndef IOTDB_OBS_ATTRIBUTION_H_
#define IOTDB_OBS_ATTRIBUTION_H_

#include <array>
#include <cstdint>

namespace iotdb {
namespace obs {

/// The fixed stage vocabulary of per-op latency attribution. Each traced op
/// carries a breadcrumb with one accumulator per stage; at op completion
/// the nonzero stages are recorded into per-stage log-scale histograms
/// (`attrib.<stage>_micros`) in the global registry.
///
/// Two disjoint groups compose an op's wall time, depending on which thread
/// executes the storage work:
///  - storage stages (commit queue wait, WAL sync, commit wait) are
///    accumulated by the thread that runs KVStore::PutMany/Write — the
///    driver thread in single-store mode, a replica mailbox thread under
///    replication;
///  - cluster stages (fan-out send, quorum wait, retry/backoff) are
///    accumulated on the driver thread around the quorum write.
/// Summing across groups therefore double-counts under replication (the
/// replica's storage work happens *inside* the driver's quorum wait); the
/// critical-path reconciliation in the FDR sums only the group the op
/// actually executed on its own thread.
enum class Stage : int {
  kCommitQueueWait = 0,  // time queued behind the group-commit leader
  kWalSync,              // WAL append + sync (leader, per group)
  kCommitWait,           // memtable insert + sequence publication + handoff
  kFanoutSend,           // building + sending replica write requests
  kQuorumWait,           // waiting for W acks (includes straggler tolerance)
  kRetryBackoff,         // driver retry sleeps on Unavailable/TimedOut
};

inline constexpr int kNumStages = 6;

/// Stable lowercase stage slug ("commit_queue_wait", ...), used for registry
/// instrument names, slowops.json keys, and FDR rows.
const char* StageName(Stage stage);

/// Whether `stage` is accumulated on the op's own thread in cluster mode
/// (the driver-path group) — see the class comment on double counting.
bool IsClusterStage(Stage stage);

/// Per-op stage accumulator plus identity, filled in place by the layers
/// the op passes through. Fixed size, no allocation; lives on the op's
/// stack frame and is reachable via a thread-local pointer so layers below
/// need no signature changes.
struct OpBreadcrumb {
  const char* op = nullptr;  // op name literal ("driver.insert_batch", ...)
  uint64_t trace_id = 0;
  uint64_t start_micros = 0;  // wall clock at op entry
  uint64_t total_micros = 0;  // end-to-end latency, set at completion
  uint64_t kvps = 0;
  std::array<uint64_t, kNumStages> stage_micros{};

  uint64_t StageSum() const {
    uint64_t sum = 0;
    for (uint64_t v : stage_micros) sum += v;
    return sum;
  }
};

/// The calling thread's active breadcrumb, or nullptr when the current op
/// is not being attributed. One TLS load.
OpBreadcrumb* CurrentBreadcrumb();

/// Adds `micros` to `stage` of the calling thread's breadcrumb; no-op (one
/// TLS load + predicted branch) when none is installed. Callers gate their
/// clock reads on CurrentBreadcrumb() themselves, so work outside an
/// attributed op pays no clock read.
inline void AddStageMicros(Stage stage, uint64_t micros);

/// Installs a breadcrumb as the thread's current one for the scope's
/// lifetime (two TLS accesses; `bench_micro_obs` gates an installed,
/// never-completed breadcrumb at 10 ns). On Complete() the nonzero stages
/// and the op total are recorded into the `attrib.*` histograms and the
/// breadcrumb is offered to the slow-op flight recorder.
class ScopedOpBreadcrumb {
 public:
  /// `op` must be a string literal. `trace_id` links the breadcrumb to the
  /// op's trace (0 = untraced).
  ScopedOpBreadcrumb(const char* op, uint64_t trace_id, uint64_t kvps);
  ~ScopedOpBreadcrumb();

  ScopedOpBreadcrumb(const ScopedOpBreadcrumb&) = delete;
  ScopedOpBreadcrumb& operator=(const ScopedOpBreadcrumb&) = delete;

  /// Finalizes the op: records per-stage histograms + attrib.op_micros and
  /// offers the breadcrumb to the SlowOpRecorder. Idempotent; a breadcrumb
  /// never completed (op failed) records nothing.
  void Complete(uint64_t start_micros, uint64_t total_micros);

 private:
  OpBreadcrumb breadcrumb_;
  OpBreadcrumb* prev_ = nullptr;
  bool completed_ = false;
};

namespace internal {
// constinit: the pointer is constant-initialized, so reads are a direct TLS
// load rather than a call through the compiler's TLS init wrapper (which
// UBSan reported as a null-pointer load).
extern thread_local constinit OpBreadcrumb* tls_breadcrumb;
}  // namespace internal

inline OpBreadcrumb* CurrentBreadcrumb() { return internal::tls_breadcrumb; }

inline void AddStageMicros(Stage stage, uint64_t micros) {
  OpBreadcrumb* bc = internal::tls_breadcrumb;
  if (bc != nullptr) bc->stage_micros[static_cast<int>(stage)] += micros;
}

}  // namespace obs
}  // namespace iotdb

#endif  // IOTDB_OBS_ATTRIBUTION_H_
