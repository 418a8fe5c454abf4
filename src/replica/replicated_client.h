// Client endpoint for a single replication group (DESIGN.md §9.5).
//
// ReplicatedClient is a routing policy over the GroupClient packet engine
// (src/replica/group_client.h). It routes writes to the primary it currently
// believes in and follows redirects through epoch changes; it load-balances
// read-only packets round-robin across all replicas, attaching the highest
// log-index watermark of the packet's own keys so a lagging backup rejects
// the read instead of serving stale data (read-your-writes across flushes).
// Its frames are unrouted: byte-identical to the pre-cluster wire format.
// Retransmission reuses the frame sequence, so a retried request is answered
// exactly once — from the replay cache on the same primary, or from the
// replicated session records after a failover.
//
// Sharded deployments live in src/cluster: a ClusterCoordinator composes one
// ReplicationGroup per group on a shared clock under an epoch-versioned shard
// map, and ClusterClient — a second policy over the same engine — routes
// per-partition packets with bounce-driven map correction (DESIGN.md §14).
#ifndef SRC_REPLICA_REPLICATED_CLIENT_H_
#define SRC_REPLICA_REPLICATED_CLIENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/replica/group_client.h"
#include "src/replica/replication_group.h"

namespace kvd {

class ReplicatedClient : public GroupClient {
 public:
  struct Options {
    SimTime timeout = 500 * kMicrosecond;  // doubles per retransmission
    // Transmissions of one packet before its operations fail with kTimedOut:
    // sized to ride out a failover (detection + election) under the doubling
    // timeout.
    uint32_t max_attempts = 24;
    // After this many attempts at one replica, rotate to the next — the
    // current target may be crashed.
    uint32_t attempts_per_target = 3;
    // Deadline-aware hedged reads: if a read packet has no response after
    // the hedge delay, send the same frame (same sequence — replay dedup
    // makes the duplicate harmless) to the next replica and take whichever
    // response lands first. Writes are never hedged: they must go to the
    // primary. The delay adapts to the observed read RTT distribution (p99
    // once 16 samples exist, timeout/2 before that), floored at 10 µs.
    bool hedge_reads = false;
  };

  explicit ReplicatedClient(ReplicationGroup& group)
      : ReplicatedClient(group, Options()) {}
  ReplicatedClient(ReplicationGroup& group, Options options);

 private:
  ReplicationGroup& Group(uint32_t /*id*/) override { return group_; }
  void Route(Packet& packet) override;
  void OnSent(const PacketPtr& packet) override;
  void OnAnswered(const Packet& packet, bool from_hedge) override;
  SimTime HedgeDelay() const;

  ReplicationGroup& group_;
  Options options_;
  uint32_t next_read_target_ = 0;  // round-robin cursor for read packets
  // Observed read round trips (the answering copy's transmission -> accepted
  // response, ns): the source of the adaptive hedge delay.
  LatencyHistogram read_rtt_ns_;
};

}  // namespace kvd

#endif  // SRC_REPLICA_REPLICATED_CLIENT_H_
