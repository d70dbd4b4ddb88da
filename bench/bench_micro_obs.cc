// Overhead budget check for the obs subsystem (plain main, not
// google-benchmark: the <10 ns assertions below are pass/fail gates, so the
// binary exits non-zero when a budget is blown). The registry is always on,
// so every gated path is one each instrumented op pays in a shipped run;
// span tracing is the only switch.
//
// Methodology: min-of-trials. Each trial times a tight loop of operations;
// the minimum across trials is the best estimate of the uncontended cost
// (scheduling noise and cache warmup only ever inflate a trial). Atomic
// RMW side effects keep the loops from being optimized away.
#include <chrono>
#include <cstdio>

#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

constexpr int kTrials = 9;
constexpr uint64_t kOpsPerTrial = 4 * 1000 * 1000;

// Uncontended counter increment must stay under this (single thread, hot
// cache) or the always-on per-store counters in the storage layer become a
// measurable tax on the write path.
constexpr double kCounterBudgetNs = 10.0;

// TraceBuffer::Record with tracing disabled is a single relaxed load and a
// branch — the price every instrumented call site pays all the time, so it
// shares the counter budget.
constexpr double kDisabledTraceBudgetNs = 10.0;

// Enabled span record: two relaxed ring-slot stores plus a release head
// publish, no locks and no allocation. Generous bound; it exists to catch a
// regression that adds a lock or a syscall to the hot path, not to measure
// the exact store cost.
constexpr double kEnabledTraceBudgetNs = 200.0;

// Extra cost of recording a span WITH a causal TraceContext over a plain
// record: three more relaxed slot stores. Catches a regression that adds
// allocation or id hashing to context propagation.
constexpr double kContextOverheadBudgetNs = 25.0;

// Breadcrumb install + one stage, never completed: the ScopedOpBreadcrumb
// constructor and destructor swap the thread's breadcrumb pointer and
// AddStageMicros is one TLS load + add. Every driver op and replica apply
// pays this before its stage times are recorded, so it shares the
// disabled-tracing budget.
constexpr double kBreadcrumbBudgetNs = kDisabledTraceBudgetNs;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

template <typename Fn>
double MinNsPerOp(Fn&& fn) {
  double best = 1e18;
  for (int t = 0; t < kTrials; ++t) {
    uint64_t start = NowNanos();
    for (uint64_t i = 0; i < kOpsPerTrial; ++i) fn(i);
    uint64_t elapsed = NowNanos() - start;
    double ns = static_cast<double>(elapsed) /
                static_cast<double>(kOpsPerTrial);
    if (ns < best) best = ns;
  }
  return best;
}

}  // namespace

int main() {
  using iotdb::obs::Counter;
  using iotdb::obs::LatencyHistogram;

  printf("obs micro-benchmark: %d trials x %llu ops, min-of-trials\n\n",
         kTrials, static_cast<unsigned long long>(kOpsPerTrial));

  Counter counter;
  double counter_ns = MinNsPerOp([&](uint64_t) { counter.Increment(); });
  printf("  %-44s %8.2f ns/op (budget %.0f)\n",
         "Counter::Increment (uncontended)", counter_ns, kCounterBudgetNs);

  LatencyHistogram hist;
  double hist_ns =
      MinNsPerOp([&](uint64_t i) { hist.Record(i & 0xffff); });
  printf("  %-44s %8.2f ns/op\n", "LatencyHistogram::Record", hist_ns);

  // The shipped span: two clock reads and a histogram record, tracing off.
  double span_ns = MinNsPerOp([&](uint64_t) {
    iotdb::obs::TraceSpan span("bench.span", &hist);
  });
  printf("  %-44s %8.2f ns/op\n", "TraceSpan (tracing disabled)", span_ns);

  // Tracing disabled (the default): Record must be a single branch.
  double trace_off_ns = MinNsPerOp([&](uint64_t i) {
    iotdb::obs::TraceBuffer::Record("bench.span", i, 1);
  });
  printf("  %-44s %8.2f ns/op (budget %.0f)\n",
         "TraceBuffer::Record (tracing disabled)", trace_off_ns,
         kDisabledTraceBudgetNs);

  // Tracing enabled: relaxed stores into the per-thread ring.
  iotdb::obs::TraceBuffer::StartTracing();
  double trace_on_ns = MinNsPerOp([&](uint64_t i) {
    iotdb::obs::TraceBuffer::Record("bench.span", i, 1, "i", i);
  });
  // Same record carrying a causal context: the marginal cost of the three
  // id stores is the price every traced hop on the write path pays.
  const iotdb::obs::TraceContext bench_ctx = iotdb::obs::TraceContext::Mint();
  double trace_ctx_ns = MinNsPerOp([&](uint64_t i) {
    iotdb::obs::TraceBuffer::Record("bench.span", i, 1, bench_ctx, "i", i);
  });
  uint64_t traced =
      iotdb::obs::TraceBuffer::Snapshot().size() +
      iotdb::obs::TraceBuffer::DroppedSpans();
  iotdb::obs::TraceBuffer::StopTracing();
  printf("  %-44s %8.2f ns/op (budget %.0f)\n",
         "TraceBuffer::Record (tracing enabled)", trace_on_ns,
         kEnabledTraceBudgetNs);
  double ctx_overhead_ns =
      trace_ctx_ns > trace_on_ns ? trace_ctx_ns - trace_on_ns : 0.0;
  printf("  %-44s %8.2f ns/op (+%.2f over plain, budget +%.0f)\n",
         "TraceBuffer::Record (with context)", trace_ctx_ns,
         ctx_overhead_ns, kContextOverheadBudgetNs);

  // Stage attribution as shipped: the breadcrumb is installed and collects
  // a stage; it is never completed, so no histogram is recorded.
  double bc_ns = MinNsPerOp([&](uint64_t i) {
    iotdb::obs::ScopedOpBreadcrumb bc("bench.op", 0, 1);
    iotdb::obs::AddStageMicros(iotdb::obs::Stage::kVlog, i);
  });
  printf("  %-44s %8.2f ns/op (budget %.0f)\n",
         "breadcrumb + stage (installed, uncompleted)", bc_ns,
         kBreadcrumbBudgetNs);

  // Sanity: the side effects above really happened.
  if (counter.Value() == 0 || hist.TakeSnapshot().count == 0 ||
      traced == 0) {
    fprintf(stderr, "FAIL: instrument side effects were optimized away\n");
    return 1;
  }

  bool failed = false;
  if (counter_ns >= kCounterBudgetNs) {
    fprintf(stderr,
            "\nFAIL: uncontended counter increment %.2f ns/op exceeds the "
            "%.0f ns budget\n",
            counter_ns, kCounterBudgetNs);
    failed = true;
  }
  if (trace_off_ns >= kDisabledTraceBudgetNs) {
    fprintf(stderr,
            "\nFAIL: disabled-tracing span record %.2f ns/op exceeds the "
            "%.0f ns budget\n",
            trace_off_ns, kDisabledTraceBudgetNs);
    failed = true;
  }
  if (trace_on_ns >= kEnabledTraceBudgetNs) {
    fprintf(stderr,
            "\nFAIL: enabled span record %.2f ns/op exceeds the %.0f ns "
            "budget\n",
            trace_on_ns, kEnabledTraceBudgetNs);
    failed = true;
  }
  if (ctx_overhead_ns >= kContextOverheadBudgetNs) {
    fprintf(stderr,
            "\nFAIL: context propagation adds %.2f ns/op over a plain span "
            "record, exceeding the %.0f ns budget\n",
            ctx_overhead_ns, kContextOverheadBudgetNs);
    failed = true;
  }
  if (bc_ns >= kBreadcrumbBudgetNs) {
    fprintf(stderr,
            "\nFAIL: breadcrumb + stage attribution %.2f ns/op exceeds the "
            "%.0f ns budget\n",
            bc_ns, kBreadcrumbBudgetNs);
    failed = true;
  }
  if (failed) return 1;
  printf("\nPASS: all hot-path instruments within budget\n");
  return 0;
}
