#ifndef IOTDB_CLUSTER_CHANNEL_H_
#define IOTDB_CLUSTER_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "storage/write_batch.h"

namespace iotdb {
namespace cluster {

/// Well-known endpoint ids. Node endpoints are their non-negative node ids;
/// the coordinator (client-side quorum state machine) and the cluster's hint
/// drain service get reserved negative ids so a single channel instance can
/// route every message in the system.
constexpr int kCoordinatorEndpoint = -1;
constexpr int kHintServiceEndpoint = -2;

enum class MessageKind : unsigned char {
  kWriteRequest = 0,  // coordinator -> replica: apply a shard batch
  kWriteAck = 1,      // replica -> coordinator: outcome of a kWriteRequest
  kHintReplay = 2,    // hint service -> replica: replay buffered batches
  kHintAck = 3,       // replica -> hint service: outcome of a kHintReplay
};

/// One batch of a shard: the unit a hint keeps and a hint replay carries.
/// `batch` is the encoded WriteBatch every replica logs as is; its header
/// holds the first sequence the coordinator numbered it with.
struct ShardBatch {
  int shard = 0;
  std::shared_ptr<const storage::WriteBatch> batch;
};

/// A self-contained message. The payload is the coordinator's encoded
/// batch, shared and immutable from the first send on: the fan-out to three
/// replicas, every resend, fault-injected duplicate, hint and replay carry
/// the same bytes, and each replica logs them without a copy.
struct Message {
  MessageKind kind = MessageKind::kWriteRequest;
  uint64_t request_id = 0;
  int src = 0;
  int dst = 0;
  bool as_primary = false;
  uint64_t kvps = 0;
  uint64_t bytes = 0;
  /// Causal-trace carriage (a wire header field, like request_id): the
  /// sending op's trace id and span id. A receiver handling the message on
  /// behalf of that op derives its spans as children of `parent_span_id`,
  /// so one replicated write stays a single linked flow across the channel
  /// boundary. Zero = untraced. Acks echo the request's values back.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  /// A write request's shard and batch (its sequence in its header).
  int shard = 0;
  std::shared_ptr<const storage::WriteBatch> batch;
  /// A hint replay's batches, each applied at its own sequence.
  std::shared_ptr<const std::vector<ShardBatch>> batches;
  Status status;  // meaningful on acks
};

/// An asynchronous, unidirectional-per-send message boundary between cluster
/// participants. Delivery is at-most-once, asynchronous (Send never blocks on
/// the handler), and FIFO per destination endpoint for the in-process
/// implementation; decorators may weaken ordering and delivery (see
/// FaultChannel). Handlers run on channel-owned threads and must not call
/// back into Send for the same destination synchronously holding locks the
/// sender holds.
///
/// The interface is deliberately transport-shaped: a socket implementation
/// would satisfy it by serializing Message and dialing per-endpoint
/// connections, with no changes to the replication logic above it.
class Channel {
 public:
  virtual ~Channel() = default;

  using Handler = std::function<void(Message)>;

  /// Registers the receive handler for an endpoint. Re-registering an id
  /// replaces the handler but keeps queued messages.
  virtual void RegisterEndpoint(int endpoint, Handler handler) = 0;

  /// Stops delivery to the endpoint and discards its queue. Blocks until the
  /// endpoint's in-flight handler invocation (if any) returns.
  virtual void UnregisterEndpoint(int endpoint) = 0;

  /// Enqueues a message for asynchronous delivery. Returns false if the
  /// channel is shut down or the destination was never registered; a true
  /// return does not guarantee delivery (the endpoint may unregister, or a
  /// faulty decorator may drop the message).
  virtual bool Send(Message msg) = 0;

  /// Stops all delivery threads and discards queued messages. Idempotent.
  virtual void Shutdown() = 0;
};

/// A loopback Channel: each endpoint gets a mailbox drained by a dedicated
/// thread, giving real asynchrony and per-destination FIFO order.
std::unique_ptr<Channel> NewInProcessChannel();

}  // namespace cluster
}  // namespace iotdb

#endif  // IOTDB_CLUSTER_CHANNEL_H_
