// The repository benchmark driver. One workload per invocation:
//
//   kitbench --workload kit_ingest|store_ingest|dashboard_query
//            --seed N --seconds S --trace 0|1
//
// Prints the facts of what ran, a human-readable report, and as its last
// line one JSON object {"correct","attempted","failed","metrics"}. With
// --trace 0 the metrics are the end-to-end ones, measured untraced; with
// --trace 1 they are the per-layer ones from a traced pass. Exits non-zero
// when the arguments are bad or the run could not produce a result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "driver/workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage() {
  fprintf(stderr,
          "usage: kitbench --workload kit_ingest|store_ingest|"
          "dashboard_query --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  kitbench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (strcmp(flag, "--workload") == 0) {
      args.workload = value;
      have_workload = true;
    } else if (strcmp(flag, "--seed") == 0) {
      args.seed = strtoull(value, nullptr, 10);
    } else if (strcmp(flag, "--seconds") == 0) {
      args.seconds = atof(value);
    } else if (strcmp(flag, "--trace") == 0) {
      args.trace = atoi(value) != 0;
    } else {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 != 1 || !(args.seconds > 0)) return Usage();
  // The library logs progress at Info; keep stdout for results.
  iotdb::Logger::SetLevel(iotdb::LogLevel::kWarn);

  kitbench::WorkloadOutput out;
  if (args.workload == "kit_ingest") {
    out = kitbench::RunKitIngest(args);
  } else if (args.workload == "store_ingest") {
    out = kitbench::RunStoreIngest(args);
  } else if (args.workload == "dashboard_query") {
    out = kitbench::RunDashboardQuery(args);
  } else {
    return Usage();
  }

  std::string facts = "{";
  auto fact = [&facts](const std::string& k, const std::string& v) {
    if (facts.size() > 1) facts += ",";
    facts += JsonString(k) + ":" + JsonString(v);
  };
  fact("workload", args.workload);
  fact("seed", std::to_string(args.seed));
  fact("seconds", kitbench::Num(args.seconds));
  fact("trace", args.trace ? "1" : "0");
  for (const auto& [k, v] : kitbench::HostFacts()) fact(k, v);
  for (const auto& [k, v] : out.config) fact(k, v);
  facts += "}";
  printf("config %s\n", facts.c_str());
  printf("%s", out.report.c_str());
  printf("error_rate %s (%llu failed of %llu attempted)\n",
         kitbench::Num(out.ops.ErrorRate()).c_str(),
         static_cast<unsigned long long>(out.ops.failed),
         static_cast<unsigned long long>(out.ops.attempted));

  bool finite = true;
  std::string metrics = "{";
  for (const auto& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      finite = false;
      continue;
    }
    printf("%-36s %14s %s\n", m.name.c_str(), kitbench::Num(m.value).c_str(),
           m.unit.c_str());
    if (metrics.size() > 1) metrics += ",";
    metrics += JsonString(m.name) + ":{\"value\":" + kitbench::Num(m.value) +
               ",\"unit\":" + JsonString(m.unit) + "}";
  }
  metrics += "}";
  const bool correct = finite && out.ops.AllOk();
  printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
         correct ? "true" : "false",
         static_cast<unsigned long long>(out.ops.attempted),
         static_cast<unsigned long long>(out.ops.failed), metrics.c_str());
  fflush(stdout);
  return 0;
}
