// Topology-independent client interface.
//
// Every client in the repo — Client (one server), MultiNicClient (sharded
// servers), ReplicatedClient (one replicated group), ClusterClient (sharded
// replicated groups) — speaks this interface, so a benchmark or test driver
// written once (bench/bench_util.h DriveEndpoint, the YCSB harness) runs
// unchanged against any topology. The two group clients implement it once,
// in their shared GroupClient engine (src/replica/group_client.h).
//
// Enqueue/Flush is the reliable batched path all endpoints implement.
// SubmitPacket is the raw datagram path used by closed-loop throughput
// benches (no framing, no retry — the bench counts undecoded responses);
// only endpoints with a single direct server wire support it.
//
// The consistency harness taps this interface too: RecordingEndpoint
// (src/check/history.h) wraps any KvEndpoint and captures every op's
// invoke/return interval and observed result for the linearizability checker
// — one wrapper covers every topology.
#ifndef SRC_TRANSPORT_KV_ENDPOINT_H_
#define SRC_TRANSPORT_KV_ENDPOINT_H_

#include <functional>
#include <vector>

#include "src/net/kv_types.h"
#include "src/sim/simulator.h"
#include "src/transport/reliable_sender.h"

namespace kvd {

class KvEndpoint {
 public:
  virtual ~KvEndpoint() = default;

  // Queues one operation; returns its slot in the next Flush()'s results.
  virtual size_t Enqueue(KvOperation op) = 0;

  // Sends everything queued and runs the simulation until every operation
  // has a result (in Enqueue order).
  virtual std::vector<KvResultMessage> Flush() = 0;

  // Wire-level counters (retransmits, corrupt/duplicate responses, ...);
  // sharded endpoints sum across their per-shard clients.
  virtual ReliableSender::Stats endpoint_stats() const = 0;

  // Simulated clock, for latency measurement around Enqueue/Flush or
  // SubmitPacket.
  virtual SimTime now() const = 0;

  // Advances the endpoint's simulation by one event; false when idle (or when
  // the endpoint spans independent clocks and cannot be stepped as one).
  virtual bool Step() = 0;

  // Raw datagram path: ships one already-encoded ops payload and invokes
  // `done` when its (undecoded) response reaches the client side. Returns
  // false if this endpoint has no raw path; the payload is then untouched.
  virtual bool SubmitPacket(std::vector<uint8_t> /*ops_payload*/,
                            std::function<void()> /*done*/) {
    return false;
  }
};

}  // namespace kvd

#endif  // SRC_TRANSPORT_KV_ENDPOINT_H_
