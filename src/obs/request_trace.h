// Per-operation request tracing: the observability layer behind the paper's
// Fig. 17 latency decomposition ("where does each microsecond of a GET/PUT
// go?").
//
// A trace is created client-side when an operation is first sent and follows
// the op through every layer on the one simulated clock: client retransmission
// attempts, network flight, reliable-frame decode, processor admission and
// retirement, reservation-station waits, dispatcher/DMA/NIC-DRAM accesses,
// and — for replicated writes — log append, frame shipping, quorum wait, and
// commit. Two record kinds:
//
//   - checkpoints (TracePoint): one timestamp per lifecycle milestone,
//     first-write-wins. The interval between consecutive *present* checkpoints
//     is a named stage, so per-op stage durations sum exactly to the measured
//     end-to-end latency by construction.
//   - spans (TraceSpan): typed intervals for overlapping sub-work (individual
//     DMA TLPs, NIC-DRAM channel occupancy, station parking, replica frame
//     shipping, retransmission backoff).
//
// Ops carry a 64-bit trace handle in-memory only (never on the wire); handle
// 0 means untraced, so a disabled tracer costs the hot paths one predictable
// branch. Everything runs on the simulated clock, so same-seed runs produce
// bit-identical traces.
#ifndef SRC_OBS_REQUEST_TRACE_H_
#define SRC_OBS_REQUEST_TRACE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/net/kv_types.h"
#include "src/obs/metric_registry.h"
#include "src/sim/simulator.h"

namespace kvd {

class FlightRecorder;
class JsonWriter;

// Lifecycle checkpoints in chronological (= enum) order. A given op stamps a
// subset: unreplicated ops skip the kRepl* points, reads skip them too.
enum class TracePoint : uint8_t {
  kClientSend = 0,    // first wire transmission leaves the client
  kServerReceive,     // frame decoded and admitted server-side
  kSubmit,            // handed to the KV processor
  kAdmit,             // accepted by the reservation station
  kRetire,            // execution complete, result final
  kReplAppend,        // write appended to the primary's replication log
  kReplCommit,        // quorum reached, write durable
  kResponseSent,      // response frame handed to the network
  kClientReceive,     // response decoded client-side
};

inline constexpr size_t kNumTracePoints = 9;

constexpr const char* TracePointName(TracePoint point) {
  switch (point) {
    case TracePoint::kClientSend:
      return "client_send";
    case TracePoint::kServerReceive:
      return "server_receive";
    case TracePoint::kSubmit:
      return "submit";
    case TracePoint::kAdmit:
      return "admit";
    case TracePoint::kRetire:
      return "retire";
    case TracePoint::kReplAppend:
      return "repl_append";
    case TracePoint::kReplCommit:
      return "repl_commit";
    case TracePoint::kResponseSent:
      return "response_sent";
    case TracePoint::kClientReceive:
      return "client_receive";
  }
  return "unknown_point";
}

// Name of the latency stage that *ends* at `point` (the interval since the
// previous present checkpoint). kClientSend starts the timeline and ends no
// stage.
constexpr const char* StageName(TracePoint point) {
  switch (point) {
    case TracePoint::kClientSend:
      return "origin";
    case TracePoint::kServerReceive:
      return "net_request";
    case TracePoint::kSubmit:
      return "decode";
    case TracePoint::kAdmit:
      return "queue";
    case TracePoint::kRetire:
      return "execute";
    case TracePoint::kReplAppend:
      return "log_append";
    case TracePoint::kReplCommit:
      return "quorum_wait";
    case TracePoint::kResponseSent:
      return "respond";
    case TracePoint::kClientReceive:
      return "net_response";
  }
  return "unknown_stage";
}

// Typed sub-intervals that can overlap each other and the stage boundaries.
enum class SpanKind : uint8_t {
  kNetWire = 0,     // serialization + flight on a network direction
  kStationWait,     // parked in the reservation station behind a key
  kMemAccess,       // one LoadDispatcher access (detail: route code)
  kDmaTlp,          // one PCIe TLP attempt (detail: bytes)
  kNicDramAccess,   // NIC-DRAM channel occupancy + access (detail: bytes)
  kReplShip,        // replication frame primary -> backup (detail: replica)
  kRetransmit,      // client retransmission wait (detail: attempt/cause)
  kBusyRetry,       // client backoff after a kBusy rejection
  kDeadlineWait,    // queue time an op spent waiting before a deadline shed
};

inline constexpr size_t kNumSpanKinds = 9;

constexpr const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kNetWire:
      return "net_wire";
    case SpanKind::kStationWait:
      return "station_wait";
    case SpanKind::kMemAccess:
      return "mem_access";
    case SpanKind::kDmaTlp:
      return "dma_tlp";
    case SpanKind::kNicDramAccess:
      return "nic_dram";
    case SpanKind::kReplShip:
      return "repl_ship";
    case SpanKind::kRetransmit:
      return "retransmit";
    case SpanKind::kBusyRetry:
      return "busy_retry";
    case SpanKind::kDeadlineWait:
      return "deadline_wait";
  }
  return "unknown_span";
}

// LoadDispatcher route codes carried in kMemAccess span details.
inline constexpr uint64_t kRoutePcie = 0;
inline constexpr uint64_t kRouteCacheHit = 1;
inline constexpr uint64_t kRouteCacheMiss = 2;
inline constexpr uint64_t kRouteEccDemotion = 3;

struct TraceSpan {
  SpanKind kind = SpanKind::kNetWire;
  SimTime start = 0;
  SimTime end = 0;
  uint64_t detail = 0;
};

// Rounds picoseconds to the nearest nanosecond (histograms store ns).
constexpr uint64_t PsToNs(SimTime ps) {
  return (ps + kNanosecond / 2) / kNanosecond;
}

struct OpTrace {
  static constexpr SimTime kAbsent = ~SimTime{0};

  uint64_t id = 0;          // (first wire sequence << 16) | op index
  Opcode opcode = Opcode::kGet;
  uint64_t sequence = 0;    // wire sequence of the first transmission
  uint32_t op_index = 0;    // position within that packet
  uint32_t attempts = 0;    // wire transmissions (>1 means retransmitted)
  ResultCode result = ResultCode::kOk;
  std::array<SimTime, kNumTracePoints> points;
  std::vector<TraceSpan> spans;

  OpTrace() { points.fill(kAbsent); }

  bool Has(TracePoint point) const {
    return points[static_cast<size_t>(point)] != kAbsent;
  }
  SimTime At(TracePoint point) const {
    return points[static_cast<size_t>(point)];
  }
  // Picoseconds from client send to client receive; 0 until both are stamped.
  SimTime EndToEndPs() const {
    return (Has(TracePoint::kClientSend) && Has(TracePoint::kClientReceive))
               ? At(TracePoint::kClientReceive) - At(TracePoint::kClientSend)
               : 0;
  }
};

// Serializes one trace as a JSON object (points keyed by name, spans as
// typed intervals). Deterministic: field order is fixed, absent points are
// omitted.
void AppendTraceJson(const OpTrace& trace, JsonWriter& json);

// Per-opcode, per-stage latency histograms (nanoseconds) fed by completed
// traces — the Fig-17-style "where the microsecond goes" aggregation.
class LatencyBreakdown {
 public:
  static constexpr size_t kNumOpcodes = 8;

  LatencyBreakdown() = default;
  LatencyBreakdown(const LatencyBreakdown&) = delete;
  LatencyBreakdown& operator=(const LatencyBreakdown&) = delete;

  void Record(const OpTrace& trace);

  // Histogram of the stage ending at `point` for `opcode` (ns).
  const LatencyHistogram& Stage(Opcode opcode, TracePoint point) const;
  const LatencyHistogram& EndToEnd(Opcode opcode) const;
  uint64_t recorded() const { return recorded_; }

  // Registers kvd_trace_stage_ns{opcode,stage} and kvd_trace_e2e_ns{opcode}
  // histograms. `this` must outlive the registry.
  void RegisterMetrics(MetricRegistry& registry) const;

 private:
  std::array<std::array<LatencyHistogram, kNumTracePoints>, kNumOpcodes> stages_;
  std::array<LatencyHistogram, kNumOpcodes> e2e_;
  uint64_t recorded_ = 0;
};

// Renderers for the breakdown: a printable table (stages as rows, opcodes
// with data as columns, mean ns per cell) and a JSON export.
struct LatencyBreakdownReport {
  static std::string Table(const LatencyBreakdown& breakdown);
  // Appends an array value: one object per opcode with data.
  static void AppendJson(const LatencyBreakdown& breakdown, JsonWriter& json);
  // {"breakdown":[...]}
  static std::string ToJson(const LatencyBreakdown& breakdown);
};

// Service-level objective monitor: tumbling simulated-time windows of
// end-to-end latency, evaluated against a configurable p99 target. A window
// over the target triggers the flight recorder.
struct SloConfig {
  SimTime window = kMillisecond;  // tumbling window length (simulated)
  uint64_t p99_target_ns = 0;     // 0 disables the objective
};

class SloMonitor {
 public:
  SloMonitor(Simulator& sim, const SloConfig& config, FlightRecorder& recorder)
      : sim_(sim), config_(config), recorder_(recorder) {}
  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  void Record(uint64_t e2e_ns);

  uint64_t p99_breaches() const { return p99_breaches_; }

  // kvd_slo_* counters and the last-window gauge.
  void RegisterMetrics(MetricRegistry& registry);

 private:
  void RollTo(SimTime now);
  void Evaluate();

  Simulator& sim_;
  const SloConfig config_;
  FlightRecorder& recorder_;
  LatencyHistogram window_;
  SimTime window_start_ = 0;
  uint64_t windows_evaluated_ = 0;
  uint64_t p99_breaches_ = 0;
  double last_p99_ns_ = 0;
};

// The tracer proper: owns live traces, hands out handles, and feeds each
// completed trace to the breakdown, the SLO monitor, and the flight
// recorder's ring. Built and wired by Telemetry (src/obs/telemetry.h).
class RequestTracer {
 public:
  RequestTracer(Simulator& sim, bool enabled, LatencyBreakdown& breakdown,
                SloMonitor& slo, FlightRecorder& recorder)
      : sim_(sim),
        enabled_(enabled),
        breakdown_(breakdown),
        slo_(slo),
        recorder_(recorder) {}
  RequestTracer(const RequestTracer&) = delete;
  RequestTracer& operator=(const RequestTracer&) = delete;

  bool enabled() const { return enabled_; }

  // Creates a live trace and stamps kClientSend now. Returns the handle, or
  // 0 when tracing is disabled or the live table is full.
  uint64_t Start(Opcode opcode, uint64_t sequence, uint32_t op_index);

  // Stamps `point` at the current simulated time. First write wins, so
  // retransmissions and duplicate deliveries cannot move a checkpoint.
  void Point(uint64_t handle, TracePoint point);

  // Records a typed span [start, end] (simulated picoseconds).
  void Span(uint64_t handle, SpanKind kind, SimTime start, SimTime end,
            uint64_t detail = 0);

  // Counts one wire transmission attempt.
  void CountAttempt(uint64_t handle);

  // Stamps kClientReceive (if absent), records the result, feeds the
  // consumers, and retires the live trace.
  void Finish(uint64_t handle, ResultCode result);

  // Client side: associates a wire sequence with the handles of the ops it
  // carries (in payload order). Re-registering under a new sequence is how
  // busy-retries keep their identity across re-sends.
  void RegisterPacket(uint64_t sequence, const std::vector<uint64_t>& handles);

  // Server side: handle of op `op_index` in the packet with `sequence`, or 0.
  // Non-consuming, so redirects and retransmissions resolve repeatedly.
  uint64_t LookupOp(uint64_t sequence, size_t op_index) const;

  const OpTrace* Live(uint64_t handle) const;
  // Live traces in ascending handle order (deterministic).
  std::vector<const OpTrace*> LiveTraces() const;

  uint64_t started() const { return started_; }
  uint64_t finished() const { return finished_; }
  uint64_t dropped() const { return dropped_; }

  // kvd_trace_started/finished/dropped counters.
  void RegisterMetrics(MetricRegistry& registry);

 private:
  // Bounds keep a runaway workload from exhausting memory; overflows count
  // as drops rather than aborting the run.
  static constexpr size_t kMaxLive = 1u << 16;
  static constexpr size_t kMaxSpansPerOp = 4096;
  static constexpr size_t kMaxPackets = 8192;

  Simulator& sim_;
  const bool enabled_;
  uint64_t started_ = 0;
  uint64_t finished_ = 0;
  uint64_t dropped_ = 0;
  std::map<uint64_t, OpTrace> live_;
  std::map<uint64_t, std::vector<uint64_t>> packet_ops_;
  LatencyBreakdown& breakdown_;
  SloMonitor& slo_;
  FlightRecorder& recorder_;
};

}  // namespace kvd

#endif  // SRC_OBS_REQUEST_TRACE_H_
