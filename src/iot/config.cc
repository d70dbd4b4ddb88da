#include "iot/config.h"

#include <set>

namespace iotdb {
namespace iot {

Result<BenchmarkConfig> LoadBenchmarkConfig(const Properties& props) {
  static const std::set<std::string> kKnownKeys = {
      "driver_instances",     "total_kvps",         "batch_size",
      "seed",                 "min_run_seconds",    "min_per_sensor_rate",
      "min_rows_per_query",   "enforce_query_rows", "skip_warmup",
      "repeatability_tolerance", "timeline.cadence_ms",
      "fault.kill_node",      "fault.at_ops",       "fault.restart_after_ops",
      "fault.corrupt_sstable", "fault.corrupt_at_ops", "fault.corrupt_bits",
      "fault.corrupt_target",  "fault.net_partition_node",
      "fault.net_partition_at_ops", "fault.net_heal_after_ops",
      "fault.net_delay_node", "fault.net_delay_ms", "fault.net_drop_pct",
      "fault.net_dup_pct",    "fault.net_reorder_pct"};
  for (const auto& [key, value] : props.map()) {
    if (kKnownKeys.count(key) == 0) {
      return Status::InvalidArgument("unknown benchmark property: " + key);
    }
  }

  BenchmarkConfig config;
  IOTDB_ASSIGN_OR_RETURN(int64_t instances,
                         props.GetInt("driver_instances", 1));
  IOTDB_ASSIGN_OR_RETURN(
      int64_t total_kvps,
      props.GetInt("total_kvps",
                   static_cast<int64_t>(Rules::kDefaultTotalKvps)));
  IOTDB_ASSIGN_OR_RETURN(int64_t batch_size, props.GetInt("batch_size", 200));
  IOTDB_ASSIGN_OR_RETURN(int64_t seed, props.GetInt("seed", 42));
  IOTDB_ASSIGN_OR_RETURN(
      config.min_run_seconds,
      props.GetDouble("min_run_seconds", Rules::kMinRunSeconds));
  IOTDB_ASSIGN_OR_RETURN(
      config.min_per_sensor_rate,
      props.GetDouble("min_per_sensor_rate", Rules::kMinPerSensorRate));
  IOTDB_ASSIGN_OR_RETURN(
      config.min_rows_per_query,
      props.GetDouble("min_rows_per_query", Rules::kMinKvpsPerQuery));
  IOTDB_ASSIGN_OR_RETURN(config.enforce_query_rows,
                         props.GetBool("enforce_query_rows", false));
  IOTDB_ASSIGN_OR_RETURN(config.skip_warmup,
                         props.GetBool("skip_warmup", false));
  IOTDB_ASSIGN_OR_RETURN(config.repeatability_tolerance,
                         props.GetDouble("repeatability_tolerance", 0));
  IOTDB_ASSIGN_OR_RETURN(int64_t timeline_cadence_ms,
                         props.GetInt("timeline.cadence_ms", 1000));
  if (timeline_cadence_ms < 1) {
    return Status::InvalidArgument("timeline.cadence_ms must be >= 1");
  }
  config.timeline_cadence_micros =
      static_cast<uint64_t>(timeline_cadence_ms) * 1000;
  IOTDB_ASSIGN_OR_RETURN(int64_t fault_kill_node,
                         props.GetInt("fault.kill_node", -1));
  IOTDB_ASSIGN_OR_RETURN(int64_t fault_at_ops,
                         props.GetInt("fault.at_ops", 0));
  IOTDB_ASSIGN_OR_RETURN(int64_t fault_restart_after_ops,
                         props.GetInt("fault.restart_after_ops", 0));

  if (fault_at_ops < 0 || fault_restart_after_ops < 0) {
    return Status::InvalidArgument(
        "fault.at_ops and fault.restart_after_ops must be >= 0");
  }
  if (fault_kill_node < 0 &&
      (fault_at_ops > 0 || fault_restart_after_ops > 0)) {
    return Status::InvalidArgument(
        "fault.at_ops/fault.restart_after_ops require fault.kill_node");
  }
  config.fault_kill_node = static_cast<int>(fault_kill_node);
  config.fault_at_ops = static_cast<uint64_t>(fault_at_ops);
  config.fault_restart_after_ops =
      static_cast<uint64_t>(fault_restart_after_ops);

  IOTDB_ASSIGN_OR_RETURN(int64_t corrupt_node,
                         props.GetInt("fault.corrupt_sstable", -1));
  IOTDB_ASSIGN_OR_RETURN(int64_t corrupt_at_ops,
                         props.GetInt("fault.corrupt_at_ops", 0));
  IOTDB_ASSIGN_OR_RETURN(int64_t corrupt_bits,
                         props.GetInt("fault.corrupt_bits", 8));
  if (corrupt_at_ops < 0) {
    return Status::InvalidArgument("fault.corrupt_at_ops must be >= 0");
  }
  if (corrupt_node < 0 && corrupt_at_ops > 0) {
    return Status::InvalidArgument(
        "fault.corrupt_at_ops requires fault.corrupt_sstable");
  }
  if (corrupt_node >= 0 && corrupt_bits < 1) {
    return Status::InvalidArgument("fault.corrupt_bits must be >= 1");
  }
  config.fault_corrupt_node = static_cast<int>(corrupt_node);
  config.fault_corrupt_at_ops = static_cast<uint64_t>(corrupt_at_ops);
  config.fault_corrupt_bits = static_cast<int>(corrupt_bits);
  config.fault_corrupt_target = props.Get("fault.corrupt_target", "sstable");
  if (config.fault_corrupt_target != "sstable" &&
      config.fault_corrupt_target != "vlog") {
    return Status::InvalidArgument(
        "fault.corrupt_target must be sstable or vlog");
  }

  IOTDB_ASSIGN_OR_RETURN(int64_t net_partition_node,
                         props.GetInt("fault.net_partition_node", -1));
  IOTDB_ASSIGN_OR_RETURN(int64_t net_partition_at_ops,
                         props.GetInt("fault.net_partition_at_ops", 0));
  IOTDB_ASSIGN_OR_RETURN(int64_t net_heal_after_ops,
                         props.GetInt("fault.net_heal_after_ops", 0));
  IOTDB_ASSIGN_OR_RETURN(int64_t net_delay_node,
                         props.GetInt("fault.net_delay_node", -1));
  IOTDB_ASSIGN_OR_RETURN(int64_t net_delay_ms,
                         props.GetInt("fault.net_delay_ms", 0));
  IOTDB_ASSIGN_OR_RETURN(config.fault_net_drop_pct,
                         props.GetDouble("fault.net_drop_pct", 0));
  IOTDB_ASSIGN_OR_RETURN(config.fault_net_dup_pct,
                         props.GetDouble("fault.net_dup_pct", 0));
  IOTDB_ASSIGN_OR_RETURN(config.fault_net_reorder_pct,
                         props.GetDouble("fault.net_reorder_pct", 0));
  if (net_partition_at_ops < 0 || net_heal_after_ops < 0) {
    return Status::InvalidArgument(
        "fault.net_partition_at_ops and fault.net_heal_after_ops must be "
        ">= 0");
  }
  if (net_partition_node < 0 &&
      (net_partition_at_ops > 0 || net_heal_after_ops > 0)) {
    return Status::InvalidArgument(
        "fault.net_partition_at_ops/fault.net_heal_after_ops require "
        "fault.net_partition_node");
  }
  if (net_delay_ms < 0) {
    return Status::InvalidArgument("fault.net_delay_ms must be >= 0");
  }
  if (net_delay_node < 0 && net_delay_ms > 0) {
    return Status::InvalidArgument(
        "fault.net_delay_ms requires fault.net_delay_node");
  }
  if (net_delay_node >= 0 && net_delay_ms < 1) {
    return Status::InvalidArgument(
        "fault.net_delay_node requires fault.net_delay_ms >= 1");
  }
  for (double p : {config.fault_net_drop_pct, config.fault_net_dup_pct,
                   config.fault_net_reorder_pct}) {
    if (p < 0 || p > 1) {
      return Status::InvalidArgument(
          "fault.net_drop_pct/dup_pct/reorder_pct must be in [0, 1]");
    }
  }
  config.fault_net_partition_node = static_cast<int>(net_partition_node);
  config.fault_net_partition_at_ops =
      static_cast<uint64_t>(net_partition_at_ops);
  config.fault_net_heal_after_ops =
      static_cast<uint64_t>(net_heal_after_ops);
  config.fault_net_delay_node = static_cast<int>(net_delay_node);
  config.fault_net_delay_ms = static_cast<uint64_t>(net_delay_ms);

  if (instances < 1) {
    return Status::InvalidArgument("driver_instances must be >= 1");
  }
  if (total_kvps < instances) {
    return Status::InvalidArgument("total_kvps must cover every driver");
  }
  if (batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  config.num_driver_instances = static_cast<int>(instances);
  config.total_kvps = static_cast<uint64_t>(total_kvps);
  config.batch_size = static_cast<size_t>(batch_size);
  config.seed = static_cast<uint64_t>(seed);
  return config;
}

Properties BenchmarkConfigToProperties(const BenchmarkConfig& config) {
  Properties props;
  props.Set("driver_instances",
            std::to_string(config.num_driver_instances));
  props.Set("total_kvps", std::to_string(config.total_kvps));
  props.Set("batch_size", std::to_string(config.batch_size));
  props.Set("seed", std::to_string(config.seed));
  props.Set("min_run_seconds", std::to_string(config.min_run_seconds));
  props.Set("min_per_sensor_rate",
            std::to_string(config.min_per_sensor_rate));
  props.Set("min_rows_per_query",
            std::to_string(config.min_rows_per_query));
  props.Set("enforce_query_rows",
            config.enforce_query_rows ? "true" : "false");
  props.Set("skip_warmup", config.skip_warmup ? "true" : "false");
  props.Set("timeline.cadence_ms",
            std::to_string(config.timeline_cadence_micros / 1000));
  if (config.fault_kill_node >= 0) {
    props.Set("fault.kill_node", std::to_string(config.fault_kill_node));
    props.Set("fault.at_ops", std::to_string(config.fault_at_ops));
    props.Set("fault.restart_after_ops",
              std::to_string(config.fault_restart_after_ops));
  }
  if (config.fault_corrupt_node >= 0) {
    props.Set("fault.corrupt_sstable",
              std::to_string(config.fault_corrupt_node));
    props.Set("fault.corrupt_at_ops",
              std::to_string(config.fault_corrupt_at_ops));
    props.Set("fault.corrupt_bits",
              std::to_string(config.fault_corrupt_bits));
    props.Set("fault.corrupt_target", config.fault_corrupt_target);
  }
  if (config.fault_net_partition_node >= 0) {
    props.Set("fault.net_partition_node",
              std::to_string(config.fault_net_partition_node));
    props.Set("fault.net_partition_at_ops",
              std::to_string(config.fault_net_partition_at_ops));
    props.Set("fault.net_heal_after_ops",
              std::to_string(config.fault_net_heal_after_ops));
  }
  if (config.fault_net_delay_node >= 0) {
    props.Set("fault.net_delay_node",
              std::to_string(config.fault_net_delay_node));
    props.Set("fault.net_delay_ms",
              std::to_string(config.fault_net_delay_ms));
  }
  if (config.fault_net_drop_pct > 0) {
    props.Set("fault.net_drop_pct",
              std::to_string(config.fault_net_drop_pct));
  }
  if (config.fault_net_dup_pct > 0) {
    props.Set("fault.net_dup_pct", std::to_string(config.fault_net_dup_pct));
  }
  if (config.fault_net_reorder_pct > 0) {
    props.Set("fault.net_reorder_pct",
              std::to_string(config.fault_net_reorder_pct));
  }
  return props;
}

}  // namespace iot
}  // namespace iotdb
