// Public entry points of the KV-Direct library.
//
// The layered architecture (DESIGN.md §11):
//   - NodeRuntime (src/core/node_runtime.h) assembles the per-node subsystem
//     stack of paper Figure 2/4 — memory, index, allocator, DMA, NIC DRAM,
//     dispatcher, processor, network — on one simulator.
//   - The transport layer (src/transport) owns reliability: FrameEndpoint
//     terminates framed requests server-side (checksum, replay dedup);
//     ReliableSender drives client-side retransmission.
//   - KvDirectServer composes one runtime with one frame endpoint; Client is
//     the matching single-server KvEndpoint.
//
// Client provides remote direct key-value access: single synchronous
// operations for convenience, and batched pipelined operations (the paper's
// client-side network batching, Figure 15) for throughput.
#ifndef SRC_CORE_KV_DIRECT_H_
#define SRC_CORE_KV_DIRECT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/index_pool.h"
#include "src/common/units.h"
#include "src/core/node_runtime.h"
#include "src/net/wire_format.h"
#include "src/transport/frame_endpoint.h"
#include "src/transport/kv_endpoint.h"
#include "src/transport/reliable_sender.h"

namespace kvd {

class KvDirectServer {
 public:
  // By default the server owns its simulator and its telemetry stack.
  // Passing `external_sim` puts several servers on one clock — required when
  // they exchange messages — and `external_telemetry` has them trace into one
  // stack (the replicas of a src/replica replication group take both).
  explicit KvDirectServer(const ServerConfig& config,
                          Simulator* external_sim = nullptr,
                          Telemetry* external_telemetry = nullptr);

  KvDirectServer(const KvDirectServer&) = delete;
  KvDirectServer& operator=(const KvDirectServer&) = delete;

  // --- timed paths ---
  // Submits one operation directly to the KV processor (no network). The
  // explicit-class overload lets callers mark control traffic (replication
  // applies) exempt from admission shedding.
  void Submit(KvOperation op, KvProcessor::Completion done);
  void Submit(KvOperation op, KvProcessor::Completion done, OpClass cls);
  // Delivers a client request packet; `respond` fires with the encoded
  // response payload once every operation in the packet has retired.
  // `traced_sequence` (if nonzero) resolves each op's trace handle via the
  // request tracer's packet registry and stamps server-side checkpoints.
  void DeliverPacket(std::vector<uint8_t> payload,
                     std::function<void(std::vector<uint8_t>)> respond,
                     uint64_t traced_sequence = 0);
  // Delivers a *framed* request ([sequence | checksum | payload]). Frames
  // that fail the checksum are dropped (the client retransmits on timeout);
  // a sequence seen before is answered from the replay cache without
  // re-executing, making retransmission idempotent. `respond` fires with the
  // framed response echoing the request sequence.
  void DeliverFrame(std::vector<uint8_t> packet,
                    std::function<void(std::vector<uint8_t>)> respond);

  // --- untimed convenience (warm-up fills, tests) ---
  KvResultMessage Execute(const KvOperation& op);
  Status Load(std::span<const uint8_t> key, std::span<const uint8_t> value);

  // --- component access for benchmarks and diagnostics ---
  NodeRuntime& runtime() { return runtime_; }
  Simulator& simulator() { return runtime_.simulator(); }
  KvProcessor& processor() { return runtime_.processor(); }
  HashIndex& index() { return runtime_.index(); }
  SlabAllocator& allocator() { return runtime_.allocator(); }
  LoadDispatcher& dispatcher() { return runtime_.dispatcher(); }
  DmaEngine& dma() { return runtime_.dma(); }
  NicDram& nic_dram() { return runtime_.nic_dram(); }
  NetworkModel& network() { return runtime_.network(); }
  UpdateFunctionRegistry& registry() { return runtime_.registry(); }
  FaultInjector& faults() { return runtime_.faults(); }
  const ServerConfig& config() const { return runtime_.config(); }
  uint64_t replayed_responses() const { return endpoint_.stats().replayed_responses; }
  uint64_t corrupt_frames() const { return endpoint_.stats().corrupt_frames; }
  uint64_t stale_retransmits() const { return endpoint_.stats().stale_retransmits; }
  const FrameEndpoint& frame_endpoint() const { return endpoint_; }
  // Hands each client a disjoint 2^40-sequence space so frames from
  // different clients never collide in the replay cache.
  uint64_t AcquireClientSequenceBase() { return ++next_client_id_ << 40; }
  const AccessStats& memory_stats() const { return runtime_.memory_stats(); }
  // Every subsystem's counters, gauges, and histograms (Prometheus / JSON /
  // plain-text exposition).
  const MetricRegistry& metrics() const { return runtime_.metrics(); }
  // The telemetry stack the server traces into (enable an owned one via
  // ServerConfig::enable_request_tracing). The flight recorder renders its
  // traces as Chrome/Perfetto JSON (FlightRecorder::ToChromeTraceJson).
  RequestTracer& request_tracer() { return runtime_.request_tracer(); }
  FlightRecorder& flight_recorder() { return runtime_.flight_recorder(); }
  LatencyBreakdown& breakdown() { return runtime_.breakdown(); }
  SloMonitor& slo_monitor() { return runtime_.slo_monitor(); }

 private:
  // One delivered packet collecting its results in request order. Pooled by
  // the server so each op's completion captures only {this, index, op}
  // and fits std::function's local buffer.
  struct PacketState {
    std::vector<KvResultMessage> results;
    std::vector<uint64_t> traces;  // per-op trace handles; empty if untraced
    size_t remaining = 0;
    std::function<void(std::vector<uint8_t>)> respond;
  };
  void OnPacketOpDone(uint32_t packet, uint32_t op, KvResultMessage result);

  NodeRuntime runtime_;
  FrameEndpoint endpoint_;
  uint64_t next_client_id_ = 0;
  IndexPool<PacketState> packets_;
};

// A client endpoint on the simulated network. Synchronous calls advance the
// simulator until their response arrives, so examples read like ordinary
// key-value code while every microsecond is accounted for.
class Client : public KvEndpoint {
 public:
  // End-to-end reliability: sequence-numbered, checksummed frames with
  // per-packet timeouts, jittered exponential-backoff retransmission (same
  // sequence, deduplicated server-side), and op-level backoff/retry on kBusy
  // (10 µs doubling per round, at most 16 rounds, then kTimedOut). An op's
  // deadline is the one its caller stamped in KvOperation::deadline (0 =
  // none); it rides the wire and every layer enforces it.
  struct RetryPolicy {
    SimTime timeout = 500 * kMicrosecond;  // doubles per retransmission
    // Transmissions per frame; exhausting them fails the frame's operations
    // with kTimedOut instead of retrying forever.
    uint32_t max_attempts = 8;
    // Token-bucket retry budget shared across this client's packets;
    // 0 disables (see ReliableSender::RetryPolicy).
    uint32_t retry_budget = 0;
  };

  // packets_sent: distinct frames (first transmissions); retransmits:
  // timeout-driven re-sends; busy_retries: ops re-sent after kBusy;
  // corrupt_responses / duplicate_responses: dropped response frames.
  using Stats = ReliableSender::Stats;

  // Batched calls pack ops into 4096 B frames with flag-bit compression.
  struct Options {
    // 1 disables client-side batching entirely (Figure 15/17 ablation).
    uint32_t max_ops_per_packet = 0xffffffff;
    RetryPolicy retry;
  };

  explicit Client(KvDirectServer& server) : Client(server, Options()) {}
  Client(KvDirectServer& server, Options options);

  // --- single synchronous operations ---
  Result<std::vector<uint8_t>> Get(std::span<const uint8_t> key);
  Status Put(std::span<const uint8_t> key, std::span<const uint8_t> value);
  Status Delete(std::span<const uint8_t> key);
  // Atomic scalar update (e.g. fetch-and-add); returns the original value.
  Result<uint64_t> Update(std::span<const uint8_t> key, uint64_t param,
                          uint16_t function_id = kFnAddU64,
                          uint8_t element_width = 8);
  // Vector operations (Table 1).
  Result<std::vector<uint8_t>> UpdateVectorWithScalar(std::span<const uint8_t> key,
                                                      uint64_t param,
                                                      uint16_t function_id,
                                                      uint8_t element_width);
  Result<std::vector<uint8_t>> UpdateVectorWithVector(std::span<const uint8_t> key,
                                                      std::span<const uint8_t> params,
                                                      uint16_t function_id,
                                                      uint8_t element_width);
  Result<uint64_t> Reduce(std::span<const uint8_t> key, uint64_t initial,
                          uint16_t function_id, uint8_t element_width);
  Result<std::vector<uint8_t>> Filter(std::span<const uint8_t> key, uint64_t param,
                                      uint16_t function_id, uint8_t element_width);

  // --- batched pipeline (KvEndpoint) ---
  // Queues an operation for the next Flush(). Returns the index of its result.
  size_t Enqueue(KvOperation op) override;
  // Sends all queued operations (splitting across packets as needed), runs
  // the simulation until every response arrives, and returns results in
  // enqueue order.
  std::vector<KvResultMessage> Flush() override;

  ReliableSender::Stats endpoint_stats() const override { return stats_; }
  SimTime now() const override { return server_.simulator().Now(); }
  bool Step() override { return server_.simulator().Step(); }
  // Raw datagram path (no framing, no retry): the closed-loop bench driver.
  bool SubmitPacket(std::vector<uint8_t> ops_payload,
                    std::function<void()> done) override;

  uint64_t packets_sent() const { return stats_.packets_sent; }
  const Stats& stats() const { return stats_; }

 private:
  struct FlushState;
  struct PacketCtx;

  KvResultMessage Call(KvOperation op);
  // Packs ops[indices...] into framed packets and hands each to the sender.
  void SendBatch(const std::vector<KvOperation>& ops,
                 const std::vector<size_t>& indices,
                 const std::shared_ptr<FlushState>& flush);
  void OnResponse(const std::shared_ptr<PacketCtx>& ctx,
                  std::vector<uint8_t> packet);
  // ReliableSender hooks: one wire round trip; retry exhaustion.
  void Wire(const ReliableSender::PacketPtr& packet);
  void OnFail(const ReliableSender::PacketPtr& packet);
  // Advances the simulator by `duration` (backoff waits).
  void RunFor(SimTime duration);

  KvDirectServer& server_;
  Options options_;
  std::vector<KvOperation> pending_;
  uint64_t next_sequence_;
  Stats stats_;
  ReliableSender sender_;
};

}  // namespace kvd

#endif  // SRC_CORE_KV_DIRECT_H_
