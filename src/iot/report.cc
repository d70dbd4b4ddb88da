#include "iot/report.h"

#include <cstdarg>
#include <cstdio>
#include <sstream>

#include "iot/run_timeline.h"
#include "obs/attribution.h"
#include "obs/slowops.h"

namespace iotdb {
namespace iot {

namespace {

void AppendLine(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendLine(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
  out->push_back('\n');
}

void AppendCheck(std::string* out, const CheckResult& check) {
  AppendLine(out, "  [%s] %s: %s", check.passed ? "PASS" : "FAIL",
             check.name.c_str(), check.detail.c_str());
}

void AppendRunTimeline(std::string* out, const WorkloadExecution& warmup,
                       const WorkloadExecution& measured) {
  RunTimelineAnalysis analysis =
      AnalyzeRunTimeline(warmup.timeline, measured.timeline);
  out->push_back('\n');
  AppendLine(out, "--- Run timeline (performance run, measured window) ---");
  if (analysis.intervals_analyzed == 0) {
    AppendLine(out,
               "  No complete sampling intervals (run shorter than the "
               "%.1f s cadence); steady-state analysis skipped.",
               static_cast<double>(measured.timeline.cadence_micros) / 1e6);
    return;
  }
  AppendLine(out, "  Intervals: %zu complete at %.1f s cadence%s",
             analysis.intervals_analyzed,
             static_cast<double>(measured.timeline.cadence_micros) / 1e6,
             measured.timeline.dropped_intervals > 0
                 ? " (ring overflow merged oldest intervals)"
                 : "");
  AppendLine(out, "  Mean ingest rate: %.1f kvps/s",
             analysis.mean_ingest_rate);
  AppendLine(out,
             "  [%s] steady-state CoV: %.3f (threshold %.2f)",
             analysis.cov_ok ? "PASS" : "WARN", analysis.ingest_rate_cov,
             Rules::kMaxSteadyStateCov);
  if (analysis.warmup_compared) {
    AppendLine(out,
               "  [%s] warmup-vs-measured drift: %.1f%% (threshold %.0f%%)",
               analysis.drift_ok ? "PASS" : "WARN",
               100.0 * analysis.warmup_drift,
               100.0 * Rules::kMaxWarmupDrift);
  } else {
    AppendLine(out,
               "  Warmup-vs-measured drift: not compared (no warmup "
               "timeline)");
  }
  for (const TimelineDip& dip : analysis.dips) {
    AppendLine(out,
               "  Dip: interval %zu at %.0f%% of median (%.1f kvps/s); "
               "coincident: stall %.1f ms, compaction %llu B, flush %llu B, "
               "scrub %llu B, hint depth %lld",
               dip.interval_index, 100.0 * dip.fraction_of_median,
               dip.ingest_rate, dip.stall_micros / 1000.0,
               static_cast<unsigned long long>(dip.compaction_bytes),
               static_cast<unsigned long long>(dip.flush_bytes),
               static_cast<unsigned long long>(dip.scrub_bytes),
               static_cast<long long>(dip.hint_queue_depth));
  }
}

/// FDR "Latency attribution" section: per-stage p50/p99 from the
/// `attrib.<stage>_micros` histograms of the measured window, a dominant-
/// stage critical-path estimate reconciled against the measured op p99, and
/// the slow-op flight recorder's table.
void AppendLatencyAttribution(std::string* out,
                              const WorkloadExecution& measured) {
  const obs::MetricsSnapshot& delta = measured.obs_delta;
  const obs::HistogramSnapshot* stages[obs::kNumStages] = {};
  bool any = false;
  for (int i = 0; i < obs::kNumStages; ++i) {
    std::string key = "attrib.";
    key += obs::StageName(static_cast<obs::Stage>(i));
    key += "_micros";
    auto it = delta.histograms.find(key);
    if (it != delta.histograms.end() && it->second.count > 0) {
      stages[i] = &it->second;
      any = true;
    }
  }
  if (!any && measured.slow_ops.empty()) return;

  out->push_back('\n');
  AppendLine(out,
             "--- Latency attribution (performance run, measured window) "
             "---");
  AppendLine(out, "  %-18s %12s %12s %12s", "stage", "count", "p50 us",
             "p99 us");
  for (int i = 0; i < obs::kNumStages; ++i) {
    if (stages[i] == nullptr) continue;
    AppendLine(out, "  %-18s %12llu %12.1f %12.1f",
               obs::StageName(static_cast<obs::Stage>(i)),
               static_cast<unsigned long long>(stages[i]->count),
               stages[i]->Percentile(50), stages[i]->Percentile(99));
  }

  // Critical-path estimate: sum the per-stage p99s of ONE stage group. The
  // storage stages run on whichever thread executes PutMany — under
  // replication that is a replica mailbox thread, already inside the
  // driver's quorum wait — so summing both groups would double-count. When
  // quorum waits were recorded the op's critical path is the cluster group;
  // otherwise (single-node, no replication layer) it is the storage group.
  const bool replicated =
      stages[static_cast<int>(obs::Stage::kQuorumWait)] != nullptr;
  double estimate = 0.0;
  for (int i = 0; i < obs::kNumStages; ++i) {
    if (stages[i] == nullptr) continue;
    if (obs::IsClusterStage(static_cast<obs::Stage>(i)) != replicated) {
      continue;
    }
    estimate += stages[i]->Percentile(99);
  }
  auto op_it = delta.histograms.find("driver.insert_batch_micros");
  if (estimate > 0.0 && op_it != delta.histograms.end() &&
      op_it->second.count > 0) {
    const double op_p99 = op_it->second.Percentile(99);
    const double ratio = op_p99 > 0.0 ? estimate / op_p99 : 0.0;
    AppendLine(out,
               "  [%s] critical path (%s stages): p99 sum %.1f us vs "
               "measured insert p99 %.1f us (%.0f%%)",
               ratio >= 0.85 && ratio <= 1.15 ? "PASS" : "WARN",
               replicated ? "cluster" : "storage", estimate, op_p99,
               100.0 * ratio);
  }

  if (!measured.slow_ops.empty()) {
    AppendLine(out, "  Slowest ops (flight recorder, %zu kept):",
               measured.slow_ops.size());
    for (const obs::SlowOpRecorder::Record& rec : measured.slow_ops) {
      const obs::OpBreadcrumb& bc = rec.breadcrumb;
      int dominant = 0;
      for (int i = 1; i < obs::kNumStages; ++i) {
        if (bc.stage_micros[i] > bc.stage_micros[dominant]) dominant = i;
      }
      const uint64_t stage_sum = bc.StageSum();
      AppendLine(out,
                 "    %-20s %9.1f ms  stages %9.1f ms (%3.0f%%)  "
                 "dominant %s  trace 0x%llx",
                 bc.op, bc.total_micros / 1000.0, stage_sum / 1000.0,
                 bc.total_micros > 0
                     ? 100.0 * static_cast<double>(stage_sum) /
                           static_cast<double>(bc.total_micros)
                     : 0.0,
                 obs::StageName(static_cast<obs::Stage>(dominant)),
                 static_cast<unsigned long long>(bc.trace_id));
    }
  }
}

}  // namespace

std::string ExecutiveSummary(const BenchmarkResult& result,
                             const PricedConfiguration& pricing,
                             const SutDescription& sut) {
  std::string out;
  AppendLine(&out, "==================================================");
  AppendLine(&out, " TPCx-IoT Executive Summary");
  AppendLine(&out, "==================================================");
  AppendLine(&out, "Sponsor:            %s", sut.sponsor.c_str());
  AppendLine(&out, "System:             %s (%d nodes)",
             sut.system_name.c_str(), sut.nodes);
  double iotps = result.IoTps();
  double cost = pricing.TotalCost();
  AppendLine(&out, "Performance:        %.2f IoTps", iotps);
  AppendLine(&out, "Price-Performance:  %.4f $/IoTps",
             iotps > 0 ? cost / iotps : 0.0);
  AppendLine(&out, "Total system cost:  $%.2f", cost);
  AppendLine(&out, "Availability date:  %s",
             pricing.SystemAvailabilityDate().c_str());
  AppendLine(&out, "Result validity:    %s",
             result.valid ? "VALID" : ("INVALID: " +
                                       result.invalid_reason).c_str());
  return out;
}

std::string FullDisclosureReport(const BenchmarkResult& result,
                                 const PricedConfiguration& pricing,
                                 const SutDescription& sut) {
  std::string out = ExecutiveSummary(result, pricing, sut);

  out.push_back('\n');
  AppendLine(&out, "--- Measured configuration ---");
  AppendLine(&out, "  Nodes:    %d", sut.nodes);
  AppendLine(&out, "  CPU:      %s", sut.cpu_description.c_str());
  AppendLine(&out, "  Memory:   %s", sut.memory_description.c_str());
  AppendLine(&out, "  Storage:  %s", sut.storage_description.c_str());
  AppendLine(&out, "  Network:  %s", sut.network_description.c_str());
  AppendLine(&out, "  Software: %s", sut.software_description.c_str());
  if (!sut.tunables.empty()) {
    AppendLine(&out, "  Tunables changed from defaults:");
    AppendLine(&out, "    %s", sut.tunables.c_str());
  }

  out.push_back('\n');
  AppendLine(&out, "--- Prerequisite checks ---");
  AppendCheck(&out, result.file_check);
  AppendCheck(&out, result.replication_check);

  for (int i = 0; i < 2; ++i) {
    const IterationResult& iter = result.iterations[i];
    out.push_back('\n');
    AppendLine(&out, "--- Iteration %d ---", i + 1);
    AppendLine(&out, "  Warmup:   %llu kvps in %.1f s",
               static_cast<unsigned long long>(
                   iter.warmup.metrics.kvps_ingested),
               iter.warmup.metrics.ElapsedSeconds());
    AppendLine(&out, "  Measured: %llu kvps in %.1f s -> %.2f IoTps",
               static_cast<unsigned long long>(
                   iter.measured.metrics.kvps_ingested),
               iter.measured.metrics.ElapsedSeconds(),
               iter.measured.metrics.IoTps());
    Histogram queries = iter.measured.MergedQueryLatency();
    if (queries.count() > 0) {
      AppendLine(&out,
                 "  Queries:  %llu executed, avg %.1f ms, p95 %.1f ms, "
                 "max %.1f ms, avg rows %.1f",
                 static_cast<unsigned long long>(queries.count()),
                 queries.Mean() / 1000.0, queries.Percentile(95) / 1000.0,
                 static_cast<double>(queries.max()) / 1000.0,
                 iter.measured.AvgRowsPerQuery());
    }
    const cluster::FaultRecoveryStats& faults = iter.measured.faults;
    if (faults.node_crashes + faults.node_restarts + faults.hinted_kvps +
            faults.recopied_kvps >
        0) {
      AppendLine(&out,
                 "  Faults:   %llu node crashes, %llu restarts, "
                 "%llu hinted kvps (%llu replayed, %llu overflows), "
                 "%llu re-copied kvps",
                 static_cast<unsigned long long>(faults.node_crashes),
                 static_cast<unsigned long long>(faults.node_restarts),
                 static_cast<unsigned long long>(faults.hinted_kvps),
                 static_cast<unsigned long long>(faults.hint_replayed_kvps),
                 static_cast<unsigned long long>(faults.hint_overflows),
                 static_cast<unsigned long long>(faults.recopied_kvps));
    }
    const IntegrityStats& integrity = iter.measured.integrity;
    if (integrity.Any()) {
      AppendLine(&out,
                 "  Data integrity: injected %llu corrupt files (%llu bits "
                 "flipped), detected & quarantined %llu, %llu reads "
                 "re-served from healthy replicas, %llu shard re-copies",
                 static_cast<unsigned long long>(integrity.files_corrupted),
                 static_cast<unsigned long long>(integrity.bits_flipped),
                 static_cast<unsigned long long>(
                     integrity.files_quarantined),
                 static_cast<unsigned long long>(integrity.read_repairs),
                 static_cast<unsigned long long>(integrity.shard_recopies));
      if (integrity.files_quarantined < integrity.files_corrupted) {
        AppendLine(&out,
                   "  WARNING: %llu injected corrupt files were not "
                   "detected by the scrub",
                   static_cast<unsigned long long>(
                       integrity.files_corrupted -
                       integrity.files_quarantined));
      }
      for (size_t n = 0; n < integrity.node_wal_dropped_bytes.size(); ++n) {
        if (integrity.node_wal_dropped_bytes[n] == 0) continue;
        AppendLine(&out,
                   "  WARNING: node %zu dropped %llu corrupt WAL bytes "
                   "during recovery",
                   n,
                   static_cast<unsigned long long>(
                       integrity.node_wal_dropped_bytes[n]));
      }
    }
    const cluster::AvailabilityStats& avail = iter.measured.availability;
    if (avail.writes_attempted > 0) {
      AppendLine(&out, "  --- Availability ---");
      AppendLine(&out,
                 "  Writes: %llu attempted, %llu quorum-met (%.2f%%), "
                 "%llu unavailable",
                 static_cast<unsigned long long>(avail.writes_attempted),
                 static_cast<unsigned long long>(avail.writes_quorum_met),
                 100.0 * static_cast<double>(avail.writes_quorum_met) /
                     static_cast<double>(avail.writes_attempted),
                 static_cast<unsigned long long>(avail.writes_unavailable));
      if (avail.straggler_hinted_kvps + avail.deadline_exceeded +
              avail.duplicate_acks_ignored >
          0) {
        AppendLine(&out,
                   "  Degradation: %llu straggler-hinted kvps, %llu write "
                   "deadlines exceeded, %llu duplicate acks ignored",
                   static_cast<unsigned long long>(
                       avail.straggler_hinted_kvps),
                   static_cast<unsigned long long>(avail.deadline_exceeded),
                   static_cast<unsigned long long>(
                       avail.duplicate_acks_ignored));
      }
      const cluster::NetFaultCounters& net = iter.measured.net_faults;
      if (net.dropped + net.duplicated + net.reordered + net.delayed +
              net.partition_blocked >
          0) {
        AppendLine(&out,
                   "  Net faults: %llu messages sent; %llu dropped, "
                   "%llu duplicated, %llu reordered, %llu delayed, "
                   "%llu partition-blocked",
                   static_cast<unsigned long long>(net.sent),
                   static_cast<unsigned long long>(net.dropped),
                   static_cast<unsigned long long>(net.duplicated),
                   static_cast<unsigned long long>(net.reordered),
                   static_cast<unsigned long long>(net.delayed),
                   static_cast<unsigned long long>(net.partition_blocked));
      }
      // Every attempted quorum write must resolve to exactly one outcome;
      // a mismatch means the coordinator lost track of a write.
      const bool accounted =
          avail.writes_attempted ==
          avail.writes_quorum_met + avail.writes_unavailable;
      AppendLine(&out,
                 "  [%s] write accounting: attempted == quorum-met + "
                 "unavailable",
                 accounted ? "PASS" : "FAIL");
    }
    Status window = iter.measured.metrics.Validate();
    AppendLine(&out, "  [%s] measurement window: %s",
               window.ok() ? "PASS" : "FAIL",
               window.ok() ? "ts_end after ts_start"
                           : window.message().c_str());
    AppendCheck(&out, iter.data_check);
  }

  out.push_back('\n');
  AppendLine(&out, "--- Performance run: iteration %d (repeatability "
             "delta %.2f%%) ---",
             result.performance_run + 1,
             100.0 * result.RepeatabilityDelta());

  const IterationResult& perf = result.iterations[result.performance_run];
  if (!perf.measured.timeline.empty()) {
    AppendRunTimeline(&out, perf.warmup, perf.measured);
  }

  const obs::MetricsSnapshot& obs_delta = perf.measured.obs_delta;
  if (!obs_delta.empty()) {
    out.push_back('\n');
    AppendLine(&out,
               "--- Observability (performance run, measured window) ---");
    out += obs_delta.ToTable();
    auto dropped = obs_delta.gauges.find("obs.trace.dropped_spans");
    if (dropped != obs_delta.gauges.end() && dropped->second > 0) {
      AppendLine(&out,
                 "  WARNING: trace ring dropped %lld spans (oldest "
                 "overwritten); flows in the exported trace may be "
                 "incomplete",
                 static_cast<long long>(dropped->second));
    }
  }

  AppendLatencyAttribution(&out, perf.measured);

  out.push_back('\n');
  AppendLine(&out, "--- Priced configuration ---");
  for (const LineItem& item : pricing.items()) {
    AppendLine(&out, "  %-48s %-18s qty %3d  $%12.2f  (%s, avail %s)",
               item.description.c_str(), item.part_number.c_str(),
               item.quantity, item.ExtendedPrice(),
               PriceCategoryName(item.category),
               item.availability_date.c_str());
  }
  AppendLine(&out, "  %-70s $%12.2f", "TOTAL", pricing.TotalCost());
  return out;
}

Status WriteReportFiles(storage::Env* env, const std::string& dir,
                        const BenchmarkResult& result,
                        const PricedConfiguration& pricing,
                        const SutDescription& sut) {
  IOTDB_RETURN_NOT_OK(env->CreateDir(dir));
  IOTDB_RETURN_NOT_OK(
      env->WriteStringToFile(dir + "/executive_summary.txt",
                             ExecutiveSummary(result, pricing, sut)));
  IOTDB_RETURN_NOT_OK(env->WriteStringToFile(
      dir + "/full_disclosure_report.txt",
      FullDisclosureReport(result, pricing, sut)));
  // Machine-readable layer breakdown of the performance run's measured
  // window; omitted when the obs registry was disabled for the run.
  const obs::MetricsSnapshot& obs_delta =
      result.iterations[result.performance_run].measured.obs_delta;
  if (!obs_delta.empty()) {
    IOTDB_RETURN_NOT_OK(env->WriteStringToFile(dir + "/metrics.json",
                                               obs_delta.ToJson()));
  }
  // Per-interval time series of the same window (the FDR "Run timeline"
  // section's raw data); omitted when the sampler never ran.
  const obs::Timeline& timeline =
      result.iterations[result.performance_run].measured.timeline;
  if (!timeline.empty()) {
    IOTDB_RETURN_NOT_OK(env->WriteStringToFile(dir + "/timeline.json",
                                               timeline.ToJson()));
  }
  // Slow-op flight recorder of the same window (the FDR "Latency
  // attribution" slow-op table's raw data); omitted when nothing was kept.
  const std::vector<obs::SlowOpRecorder::Record>& slow_ops =
      result.iterations[result.performance_run].measured.slow_ops;
  if (!slow_ops.empty()) {
    IOTDB_RETURN_NOT_OK(env->WriteStringToFile(
        dir + "/slowops.json", obs::SlowOpRecorder::ToJson(slow_ops)));
  }
  return Status::OK();
}

}  // namespace iot
}  // namespace iotdb
