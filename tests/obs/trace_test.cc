#include "obs/trace.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "obs/metrics.h"
#include "json_lint.h"

namespace iotdb {
namespace obs {
namespace {

// TraceBuffer state is process-global; every test starts its own tracing
// session (StartTracing clears prior spans) and stops it before asserting.

TEST(TraceBufferTest, DisabledRecordIsNoOp) {
  TraceBuffer::StartTracing(16);
  TraceBuffer::StopTracing();
  ASSERT_FALSE(TraceBuffer::Enabled());
  TraceBuffer::Record("test.disabled", 1, 2);
  EXPECT_TRUE(TraceBuffer::Snapshot().empty());
  EXPECT_EQ(TraceBuffer::DroppedSpans(), 0u);
}

TEST(TraceBufferTest, RecordPreservesFieldsAndSortsByStart) {
  TraceBuffer::StartTracing(16);
  TraceBuffer::Record("test.second", 200, 10, "kvps", 77);
  TraceBuffer::Record("test.first", 100, 5);
  TraceBuffer::StopTracing();

  std::vector<TraceEvent> events = TraceBuffer::Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "test.first");
  EXPECT_EQ(events[0].start_micros, 100u);
  EXPECT_EQ(events[0].duration_micros, 5u);
  EXPECT_EQ(events[0].arg_name, nullptr);
  EXPECT_STREQ(events[1].name, "test.second");
  EXPECT_STREQ(events[1].arg_name, "kvps");
  EXPECT_EQ(events[1].arg_value, 77u);
}

TEST(TraceBufferTest, WraparoundKeepsNewestAndCountsDropped) {
  TraceBuffer::StartTracing(4);
  for (uint64_t i = 0; i < 10; ++i) {
    TraceBuffer::Record("test.wrap", 100 + i, 1, "i", i);
  }
  TraceBuffer::StopTracing();

  std::vector<TraceEvent> events = TraceBuffer::Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(TraceBuffer::DroppedSpans(), 6u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg_value, 6 + i);  // newest four: i = 6..9
  }
}

TEST(TraceBufferTest, StartTracingClearsPriorSession) {
  TraceBuffer::StartTracing(4);
  for (int i = 0; i < 10; ++i) TraceBuffer::Record("test.old", i, 1);
  TraceBuffer::StopTracing();
  ASSERT_FALSE(TraceBuffer::Snapshot().empty());

  TraceBuffer::StartTracing(4);
  TraceBuffer::StopTracing();
  EXPECT_TRUE(TraceBuffer::Snapshot().empty());
  EXPECT_EQ(TraceBuffer::DroppedSpans(), 0u);
}

TEST(TraceBufferTest, ChromeJsonHasRequiredEventFields) {
  TraceBuffer::StartTracing(16);
  TraceBuffer::Record("test.json \"quoted\\name", 10, 3, "bytes", 4096);
  TraceBuffer::StopTracing();

  std::string json = TraceBuffer::ToChromeTraceJson();
  EXPECT_TRUE(testing::JsonLint::Valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":3"), std::string::npos);
  EXPECT_NE(json.find("\"pid\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":4096"), std::string::npos);
  // The quote and backslash in the name must have been escaped.
  EXPECT_NE(json.find("\\\"quoted\\\\name"), std::string::npos) << json;
}

TEST(TraceBufferTest, ConcurrentWritersProduceWellFormedJson) {
  constexpr int kThreads = 4;
  constexpr uint64_t kSpansPerThread = 20'000;
  TraceBuffer::StartTracing(1024);

  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&go, t] {
      while (!go.load(std::memory_order_acquire)) {}
      for (uint64_t i = 0; i < kSpansPerThread; ++i) {
        TraceBuffer::Record("test.concurrent", t * kSpansPerThread + i, 1,
                            "i", i);
      }
    });
  }
  go.store(true, std::memory_order_release);

  // Export repeatedly while the writers hammer their rings: the snapshot
  // may mix old and new spans but must never tear or emit broken JSON.
  for (int round = 0; round < 5; ++round) {
    std::string live = TraceBuffer::ToChromeTraceJson();
    EXPECT_TRUE(testing::JsonLint::Valid(live));
  }
  for (std::thread& w : writers) w.join();
  TraceBuffer::StopTracing();

  std::vector<TraceEvent> events = TraceBuffer::Snapshot();
  EXPECT_LE(events.size(), size_t{1024} * kThreads);
  EXPECT_EQ(events.size() + TraceBuffer::DroppedSpans(),
            uint64_t{kThreads} * kSpansPerThread);
  std::string json = TraceBuffer::ToChromeTraceJson();
  EXPECT_TRUE(testing::JsonLint::Valid(json));
}

// Slice of the exported JSON covering the named event (up to the start of
// the next event), so assertions can target one event's fields.
std::string EventJson(const std::string& json, const std::string& name) {
  size_t start = json.find("{\"name\":\"" + name + "\"");
  if (start == std::string::npos) return "";
  size_t end = json.find("{\"name\":", start + 1);
  return json.substr(start, end == std::string::npos ? std::string::npos
                                                     : end - start);
}

TEST(TraceContextTest, MintAndChildLinkIds) {
  TraceContext root = TraceContext::Mint();
  EXPECT_TRUE(root.valid());
  EXPECT_NE(root.trace_id, 0u);
  EXPECT_EQ(root.parent_id, 0u);

  TraceContext child = root.Child();
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_EQ(child.parent_id, root.span_id);
  EXPECT_NE(child.span_id, root.span_id);
}

TEST(TraceContextTest, ScopedContextInstallsAndRestores) {
  EXPECT_FALSE(CurrentTraceContext().valid());
  TraceContext root = TraceContext::Mint();
  {
    ScopedTraceContext outer(root);
    EXPECT_EQ(CurrentTraceContext().span_id, root.span_id);
    TraceContext child = CurrentTraceContext().Child();
    {
      ScopedTraceContext inner(child);
      EXPECT_EQ(CurrentTraceContext().span_id, child.span_id);
      EXPECT_EQ(CurrentTraceContext().parent_id, root.span_id);
    }
    EXPECT_EQ(CurrentTraceContext().span_id, root.span_id);
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST(TraceBufferTest, ContextFieldsSurviveSnapshot) {
  TraceBuffer::StartTracing(16);
  TraceContext root = TraceContext::Mint();
  TraceBuffer::Record("test.ctx", 100, 5, root, "kvps", 3);
  TraceBuffer::StopTracing();

  std::vector<TraceEvent> events = TraceBuffer::Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, root.trace_id);
  EXPECT_EQ(events[0].span_id, root.span_id);
  EXPECT_EQ(events[0].parent_id, 0u);
  EXPECT_EQ(events[0].arg_value, 3u);
}

TEST(TraceBufferTest, FlowEventsEmitWellFormedBindings) {
  TraceBuffer::StartTracing(16);
  TraceContext root = TraceContext::Mint();
  TraceContext child = root.Child();
  TraceContext grandchild = child.Child();
  TraceBuffer::Record("test.flow.root", 100, 50, root);
  TraceBuffer::Record("test.flow.child", 110, 20, child);
  TraceBuffer::Record("test.flow.leaf", 120, 5, grandchild);
  TraceBuffer::StopTracing();

  std::string json = TraceBuffer::ToChromeTraceJson();
  ASSERT_TRUE(testing::JsonLint::Valid(json)) << json;

  char bind[32];
  snprintf(bind, sizeof(bind), "\"bind_id\":\"0x%llx\"",
           static_cast<unsigned long long>(root.trace_id));

  // Every event of the op shares one flow (bind_id == trace_id): the root
  // produces it, interior spans consume and re-produce, the leaf consumes.
  std::string root_json = EventJson(json, "test.flow.root");
  EXPECT_NE(root_json.find(bind), std::string::npos) << root_json;
  EXPECT_NE(root_json.find("\"flow_out\":true"), std::string::npos);
  EXPECT_EQ(root_json.find("\"flow_in\""), std::string::npos);

  std::string child_json = EventJson(json, "test.flow.child");
  EXPECT_NE(child_json.find(bind), std::string::npos) << child_json;
  EXPECT_NE(child_json.find("\"flow_in\":true"), std::string::npos);
  EXPECT_NE(child_json.find("\"flow_out\":true"), std::string::npos);

  std::string leaf_json = EventJson(json, "test.flow.leaf");
  EXPECT_NE(leaf_json.find(bind), std::string::npos) << leaf_json;
  EXPECT_NE(leaf_json.find("\"flow_in\":true"), std::string::npos);
  EXPECT_EQ(leaf_json.find("\"flow_out\""), std::string::npos);

  // The causal ids ride in args for tooling that reads the raw JSON.
  char parent_arg[32];
  snprintf(parent_arg, sizeof(parent_arg), "\"parent\":\"0x%llx\"",
           static_cast<unsigned long long>(root.span_id));
  EXPECT_NE(child_json.find(parent_arg), std::string::npos) << child_json;
}

TEST(TraceBufferTest, FlowBindingsOmittedWhenParentWasDropped) {
  TraceBuffer::StartTracing(16);
  TraceContext root = TraceContext::Mint();
  TraceContext orphan = root.Child();
  // Only the child is recorded: its parent span never made the ring (as
  // after wraparound), so no half-open flow may be emitted.
  TraceBuffer::Record("test.flow.orphan", 100, 5, orphan);
  TraceBuffer::StopTracing();

  std::string json = TraceBuffer::ToChromeTraceJson();
  ASSERT_TRUE(testing::JsonLint::Valid(json)) << json;
  std::string orphan_json = EventJson(json, "test.flow.orphan");
  EXPECT_EQ(orphan_json.find("\"flow_in\""), std::string::npos)
      << orphan_json;
  EXPECT_EQ(orphan_json.find("\"bind_id\""), std::string::npos);
  // The parent id still appears in args: the link is data, only the
  // rendered arrow is suppressed.
  EXPECT_NE(orphan_json.find("\"parent\""), std::string::npos);
}

TEST(TraceBufferTest, CrossThreadChildLinksToParent) {
  TraceBuffer::StartTracing(16);
  TraceContext root = TraceContext::Mint();
  TraceBuffer::Record("test.xthread.parent", 100, 50, root);
  std::thread worker([&root] {
    TraceBuffer::Record("test.xthread.child", 120, 10, root.Child());
  });
  worker.join();
  TraceBuffer::StopTracing();

  std::vector<TraceEvent> events = TraceBuffer::Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "test.xthread.parent");
  EXPECT_STREQ(events[1].name, "test.xthread.child");
  EXPECT_NE(events[0].tid, events[1].tid);  // separate per-thread rings
  EXPECT_EQ(events[1].trace_id, events[0].trace_id);
  EXPECT_EQ(events[1].parent_id, events[0].span_id);
}

TEST(TraceSpanTest, SetContextFlowsIntoRecordedEvent) {
  ManualClock clock(1'000);
  TraceBuffer::StartTracing(16);
  TraceContext ctx = TraceContext::Mint();
  {
    TraceSpan span("test.span.ctx", nullptr, &clock);
    span.SetContext(ctx);
    clock.Advance(42);
  }
  TraceBuffer::StopTracing();

  std::vector<TraceEvent> events = TraceBuffer::Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, ctx.trace_id);
  EXPECT_EQ(events[0].span_id, ctx.span_id);
  EXPECT_EQ(events[0].duration_micros, 42u);
}

TEST(TraceSpanTest, RecordsHistogramAndTraceFromOneTiming) {
  LatencyHistogram* hist =
      MetricsRegistry::Global().GetHistogram("test.span.dual");
  uint64_t count_before = hist->TakeSnapshot().count;
  ManualClock clock(5'000);
  TraceBuffer::StartTracing(16);
  {
    TraceSpan span("test.span.dual", hist, &clock);
    span.SetArg("rows", 9);
    clock.Advance(1'500);
  }
  TraceBuffer::StopTracing();

  EXPECT_EQ(hist->TakeSnapshot().count, count_before + 1);
  std::vector<TraceEvent> events = TraceBuffer::Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.span.dual");
  EXPECT_EQ(events[0].start_micros, 5'000u);
  EXPECT_EQ(events[0].duration_micros, 1'500u);
  EXPECT_STREQ(events[0].arg_name, "rows");
  EXPECT_EQ(events[0].arg_value, 9u);
}

TEST(TraceSpanTest, CancelDropsBothSinks) {
  LatencyHistogram* hist =
      MetricsRegistry::Global().GetHistogram("test.span.cancel");
  uint64_t count_before = hist->TakeSnapshot().count;
  ManualClock clock(0);
  TraceBuffer::StartTracing(16);
  {
    TraceSpan span("test.span.cancel", hist, &clock);
    clock.Advance(100);
    span.Cancel();
  }
  TraceBuffer::StopTracing();

  EXPECT_EQ(hist->TakeSnapshot().count, count_before);
  EXPECT_TRUE(TraceBuffer::Snapshot().empty());
}

TEST(TraceSpanTest, StopIsIdempotent) {
  LatencyHistogram* hist =
      MetricsRegistry::Global().GetHistogram("test.span.stop");
  uint64_t count_before = hist->TakeSnapshot().count;
  ManualClock clock(0);
  TraceBuffer::StartTracing(16);
  TraceSpan span("test.span.stop", hist, &clock);
  clock.Advance(10);
  span.Stop();
  span.Stop();
  TraceBuffer::StopTracing();

  EXPECT_EQ(hist->TakeSnapshot().count, count_before + 1);
  EXPECT_EQ(TraceBuffer::Snapshot().size(), 1u);
}

}  // namespace
}  // namespace obs
}  // namespace iotdb
