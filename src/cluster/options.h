#ifndef IOTDB_CLUSTER_OPTIONS_H_
#define IOTDB_CLUSTER_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/slice.h"
#include "storage/options.h"

namespace iotdb {
namespace cluster {

/// Extracts the sharding key from a row key. Rows with equal shard keys are
/// guaranteed to live in the same region, so range scans within one shard
/// key touch a single node. TPCx-IoT shards by (substation, sensor) prefix.
using ShardKeyFn = std::function<Slice(const Slice&)>;

/// Client-side retry behaviour: bounded exponential backoff with jitter and
/// a per-operation deadline. Retries apply to transient failures (IOError,
/// Busy, TimedOut); permanently-down replicas are handled by degraded-mode
/// writes and read failover instead.
struct RetryPolicy {
  /// Total attempts (first try included). <= 1 disables retries.
  int max_attempts = 3;

  /// Backoff before the first retry; doubles (see multiplier) per attempt.
  uint64_t initial_backoff_micros = 200;

  /// Upper bound on a single backoff sleep.
  uint64_t max_backoff_micros = 50'000;

  double backoff_multiplier = 2.0;

  /// Fraction of the backoff randomised away (0 = deterministic, 1 = the
  /// sleep is uniform in [0, backoff]). Decorrelates competing clients.
  double jitter = 0.5;

  /// Overall wall-clock budget for one client operation, retries and
  /// backoff sleeps included. 0 = no deadline.
  uint64_t op_deadline_micros = 0;
};

/// Configuration of an in-process gateway cluster.
struct ClusterOptions {
  /// Number of gateway nodes (the paper evaluates 2, 4, and 8).
  int num_nodes = 2;

  /// Synchronous replicas per write. TPCx-IoT's prerequisite check requires
  /// three-way replication; replicas land on distinct nodes, so the
  /// effective copy count is min(replication_factor, num_nodes).
  int replication_factor = 3;

  /// Storage engine options applied to every node's store. The env defaults
  /// to one shared MemEnv created by the cluster.
  storage::Options storage_options;

  /// Directory prefix for node stores within the env.
  std::string data_root = "/gateway";

  /// Shard key extractor; defaults to the whole key.
  ShardKeyFn shard_key_fn;

  /// Client retry/deadline behaviour for Put/Get/Scan.
  RetryPolicy retry_policy;

  /// Hinted handoff: writes destined for a down replica are buffered (up to
  /// this many kvps per node) and replayed when the node rejoins. Overflow
  /// falls back to copying its regions from live replicas at restart.
  uint64_t max_hints_per_node = 1 << 16;

  /// Wraps every node's env in a shared FaultInjectionEnv (seeded with
  /// fault_seed) so the harness can inject IO errors and simulate node
  /// crashes. Off by default: production runs pay no decoration cost.
  bool enable_fault_injection = false;
  uint64_t fault_seed = 0;

  /// Overall deadline for one replicated write (fan-out to quorum decision)
  /// when retry_policy.op_deadline_micros is 0. Measured on the monotonic
  /// clock. Expiry fails the write with Status::Unavailable.
  uint64_t write_timeout_micros = 2'000'000;

  /// Once quorum is met, laggard replicas get this long to ack before their
  /// share of the write is converted into a hint (straggler tolerance).
  uint64_t straggler_timeout_micros = 150'000;

  /// Period of the background hint-drain thread that replays buffered hints
  /// to live nodes over the channel.
  uint64_t hint_drain_interval_micros = 20'000;

  /// Wraps the replication channel in a FaultChannel (seeded with
  /// net_fault_seed) so the harness can inject delays, drops, duplicates,
  /// reorders, and partitions. Off by default.
  bool enable_net_fault_injection = false;
  uint64_t net_fault_seed = 0;
};

}  // namespace cluster
}  // namespace iotdb

#endif  // IOTDB_CLUSTER_OPTIONS_H_
