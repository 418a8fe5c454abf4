// The packet engine every replication-group client runs on (DESIGN.md §9 and
// §14).
//
// ReplicatedClient (one group) and ClusterClient (a sharded cluster of
// groups) differ only in where a packet goes: which ops share a packet, which
// group and replica it targets, and whether its frame carries a shard route.
// Everything else lives here, once:
//
//   - the ReliableSender set-up (retransmission, target rotation, jitter);
//   - the flush lifecycle: Enqueue, the split-phase BeginFlush / flush_done /
//     TakeResults, and the blocking Flush;
//   - greedy packing into 4096 B packets, each carrying its earliest op
//     deadline;
//   - framing a GroupRequest, and the wire round trip to (group, replica)
//     with the packet's trace handles;
//   - response admission and decoding, and the redirect / stale-read bounce:
//     chase the responder's primary, back off, re-send the same frame;
//   - result delivery, including one kInvalidArgument result answering the
//     whole packet, retry exhaustion, and the per-key (group, log index)
//     watermarks of acknowledged writes.
//
// A policy derives from GroupClient and fills in the routing hooks below.
#ifndef SRC_REPLICA_GROUP_CLIENT_H_
#define SRC_REPLICA_GROUP_CLIENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/hashing.h"
#include "src/replica/replica_wire.h"
#include "src/replica/replication_group.h"
#include "src/transport/kv_endpoint.h"

namespace kvd {

class GroupClient : public KvEndpoint {
 public:
  // packets_sent / retransmits / corrupt_responses / duplicate_responses as
  // in ReliableSender::Stats, plus the group-protocol bounces. The shard
  // counters stay 0 on a single-group client, hedge_wins on a cluster client.
  struct Stats : ReliableSender::Stats {
    uint64_t redirects_followed = 0;   // kGroupRedirect bounces
    uint64_t stale_retries = 0;        // kGroupStaleRead bounces
    uint64_t hedge_wins = 0;           // packets completed by the hedge copy
    uint64_t wrong_shard_bounces = 0;  // kGroupWrongShard bounces
    uint64_t migrating_backoffs = 0;   // kGroupMigrating bounces
    uint64_t map_patches = 0;          // single-partition map corrections
    uint64_t map_refetches = 0;        // wholesale map fetches (splits)
    // Read-only packets re-batched because a split divided their keys
    // between partitions.
    uint64_t split_rebuilds = 0;
    // Write packets in the same position, failed as ambiguous instead: an
    // earlier attempt may have executed before the split, and new sequences
    // would forfeit the original frame's replay protection.
    uint64_t split_write_aborts = 0;
  };

  // Queues an operation for the next flush; returns its result index.
  size_t Enqueue(KvOperation op) override;

  // Sends every queued operation and drives the simulator until all
  // responses arrive. Results are in enqueue order.
  std::vector<KvResultMessage> Flush() override;

  ReliableSender::Stats endpoint_stats() const override { return stats_; }
  SimTime now() const override { return sim_.Now(); }
  bool Step() override { return sim_.Step(); }

  // Split-phase flush for composing several clients on one clock:
  // BeginFlush() transmits without stepping the simulator; the caller steps
  // the clock until flush_done(), then TakeResults().
  void BeginFlush();
  bool flush_done() const;
  std::vector<KvResultMessage> TakeResults();

  const Stats& stats() const { return stats_; }

  // The sender's hooks and in-flight callbacks hold `this`.
  GroupClient(const GroupClient&) = delete;
  GroupClient& operator=(const GroupClient&) = delete;

 protected:
  struct FlushState {
    std::vector<KvResultMessage> results;
    size_t outstanding = 0;
  };

  struct Packet : ReliablePacket {
    std::vector<KvOperation> ops;      // packet order
    std::vector<size_t> op_indices;    // flush-result slots, aligned with ops
    std::vector<uint8_t> ops_payload;  // PacketBuilder output, never rebuilt
    bool is_write = false;
    uint32_t group = 0;      // the group the next transmission targets
    uint32_t partition = 0;  // shard route label (routed frames only)
    SimTime sent_at = 0;     // first transmission
    SimTime hedged_at = 0;   // the hedge copy's transmission; 0 if none
    std::shared_ptr<FlushState> flush;
  };
  using PacketPtr = std::shared_ptr<Packet>;

  // The quorum-committed log index covering this client's last acknowledged
  // write of a key, in the group that acknowledged it.
  struct Watermark {
    uint32_t group = 0;
    uint64_t index = 0;
  };

  struct Config {
    SimTime timeout = 0;  // doubles per retransmission
    // Transmissions of one packet before its operations fail with kTimedOut.
    uint32_t max_attempts = 0;
    // Consecutive timeouts at one replica before rotating to the next.
    uint32_t attempts_per_target = 0;
    uint32_t replicas = 0;  // per group
    // Wait before re-sending after a redirect or stale-read bounce.
    SimTime redirect_backoff = 0;
    // Whether ops get request traces from `tracer` (when it is enabled).
    bool trace_ops = false;
  };

  GroupClient(Simulator& sim, RequestTracer& tracer, uint64_t sequence_base,
              const Config& config);

  // --- routing hooks ---
  virtual ReplicationGroup& Group(uint32_t id) = 0;
  // Packs one batch of ops; `slots[i]` is the flush-result slot of ops[i].
  // A single group packs greedily, in order (Pack).
  virtual std::vector<PacketPtr> Build(std::vector<KvOperation> ops,
                                       const std::vector<size_t>& slots,
                                       const std::shared_ptr<FlushState>& flush) {
    return Pack(std::move(ops), slots, flush);
  }
  // First transmission: picks the packet's group and target, and frames it.
  virtual void Route(Packet& packet) = 0;
  // Right after a packet's first transmission.
  virtual void OnSent(const PacketPtr& /*packet*/) {}
  // A response whose flags a single group never sets (shard bounces);
  // returns true when it consumed the response.
  virtual bool OnShardBounce(const PacketPtr& /*packet*/,
                             const GroupResponse& /*response*/) {
    return false;
  }
  // The packet's results were delivered; `from_hedge` when the hedge copy's
  // response won.
  virtual void OnAnswered(const Packet& /*packet*/, bool /*from_hedge*/) {}
  // An acknowledged write moved `key`'s watermark from `before` (a default
  // Watermark for a key never written) to `after`; called once per change,
  // after watermarks() holds `after`.
  virtual void OnWatermark(const std::vector<uint8_t>& /*key*/,
                           const Watermark& /*before*/,
                           const Watermark& /*after*/) {}

  // --- engine services for the hooks ---
  // Packs ops greedily, in order; each op moves into its packet.
  std::vector<PacketPtr> Pack(std::vector<KvOperation> ops,
                              const std::vector<size_t>& slots,
                              const std::shared_ptr<FlushState>& flush);
  // Assigns a fresh sequence, registers traces, routes, and transmits.
  void Send(const PacketPtr& packet);
  // (Re)frames the packet's GroupRequest around its unchanged ops payload
  // and sequence; a map epoch adds the shard route extension.
  void Frame(Packet& packet, uint64_t required_index,
             std::optional<uint64_t> map_epoch);
  // One transmission toward `target` in the packet's group; `hedge` marks a
  // duplicate copy so its response is credited as a hedge win.
  void Wire(const PacketPtr& packet, uint32_t target, bool hedge);
  void Retarget(const PacketPtr& packet, uint32_t target) {
    sender_.Retarget(packet, target);
  }
  // Re-sends the same frame after `delay` unless the packet completes first;
  // traced ops record the wait as a kBusyRetry span (detail: the bounce flag).
  void BackoffResend(const PacketPtr& packet, SimTime delay, uint8_t cause);
  // Fails the packet's ops as ambiguous (kTimedOut) without re-sending.
  void Abort(const PacketPtr& packet);
  uint32_t& BelievedPrimary(uint32_t group);
  using Watermarks =
      std::unordered_map<std::vector<uint8_t>, Watermark, KeyBytesHash>;
  const Watermarks& watermarks() const { return watermarks_; }

  Stats stats_;

 private:
  void OnResponse(const PacketPtr& packet, std::vector<uint8_t> bytes,
                  bool from_hedge);
  void OnFail(const PacketPtr& packet);

  Simulator& sim_;
  RequestTracer& tracer_;
  Config config_;
  std::vector<KvOperation> pending_;
  uint64_t next_sequence_;
  std::vector<uint32_t> believed_primary_;  // per group, grown on demand
  // Per-key read-your-writes watermarks. Hashed: every reader takes a
  // maximum or looks up one key, so the order never shows.
  Watermarks watermarks_;
  std::shared_ptr<FlushState> flush_;
  ReliableSender sender_;
};

}  // namespace kvd

#endif  // SRC_REPLICA_GROUP_CLIENT_H_
