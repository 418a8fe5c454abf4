// Postmortem flight recorder: a bounded ring of the most recently completed
// request traces that snapshots itself to deterministic JSON when something
// anomalous happens — a fault injection, an ECC demotion, a failover
// election, a burst of kBusy rejections, or an SLO breach.
//
// A dump captures the completed-trace ring, the still-live traces (the ops in
// flight at trigger time, span trees included), and a metrics-registry
// snapshot. The same traces render on demand as a Chrome/Perfetto timeline
// (ToChromeTraceJson) — request traces are the only tracing pipeline.
// Everything runs on the simulated clock, so same-seed runs produce
// bit-identical dumps and timelines — they double as regression artifacts.
#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/metric_registry.h"
#include "src/obs/request_trace.h"
#include "src/sim/simulator.h"

namespace kvd {

enum class FlightTrigger : uint8_t {
  kManual = 0,
  kFaultInjected,
  kEccDemotion,
  kFailover,
  kBusyBurst,
  kSloBreach,
  kShardCutover,  // cluster shard migration flipped ownership (src/cluster)
};

inline constexpr size_t kNumFlightTriggers = 7;

constexpr const char* FlightTriggerName(FlightTrigger trigger) {
  switch (trigger) {
    case FlightTrigger::kManual:
      return "manual";
    case FlightTrigger::kFaultInjected:
      return "fault_injected";
    case FlightTrigger::kEccDemotion:
      return "ecc_demotion";
    case FlightTrigger::kFailover:
      return "failover";
    case FlightTrigger::kBusyBurst:
      return "busy_burst";
    case FlightTrigger::kSloBreach:
      return "slo_breach";
    case FlightTrigger::kShardCutover:
      return "shard_cutover";
  }
  return "unknown_trigger";
}

struct FlightRecorderConfig {
  size_t ring_capacity = 64;  // completed op traces kept
  // Fault injections fire the recorder only when opted in: chaos runs inject
  // thousands of faults by design, and a scripted-fault experiment wants its
  // single dump to come from the *consequence* (ECC demotion, failover), not
  // from the injection itself.
  bool trigger_on_fault_injection = false;
};

class FlightRecorder {
 public:
  // Records only while `tracer` is enabled. Dumps read the live traces from
  // `tracer` and snapshot `registry`; both must outlive the recorder. Built
  // and wired by Telemetry (src/obs/telemetry.h).
  FlightRecorder(Simulator& sim, const FlightRecorderConfig& config,
                 const RequestTracer& tracer, const MetricRegistry& registry)
      : sim_(sim), config_(config), tracer_(tracer), registry_(registry) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  const FlightRecorderConfig& config() const { return config_; }

  // Ring feed: the tracer hands over every completed trace.
  void OnTraceComplete(const OpTrace& trace);

  // Takes a dump unless tracing is off or this trigger kind already
  // fired. Each kind fires once per run, so a cascading failure produces one
  // dump per root cause instead of one per symptom, and a run holds at most
  // kNumFlightTriggers dumps. Returns whether a dump was taken.
  bool Trigger(FlightTrigger trigger, std::string_view detail = "");

  struct Dump {
    FlightTrigger trigger = FlightTrigger::kManual;
    std::string detail;
    SimTime sim_time = 0;
    std::string json;
  };

  const std::vector<Dump>& dumps() const { return dumps_; }

  // Chrome trace-event JSON ({"traceEvents":[...],"displayTimeUnit":"ns"},
  // loadable in chrome://tracing or ui.perfetto.dev) of the completed ring
  // plus the live traces: one "stage" track of the intervals between
  // consecutive checkpoints, and one track per SpanKind. Timestamps are
  // microseconds (the format's unit) with sub-microsecond fractions.
  std::string ToChromeTraceJson() const;

  // kvd_flight_triggers / kvd_flight_dumps counters.
  void RegisterMetrics(MetricRegistry& registry);

 private:
  std::string RenderDump(FlightTrigger trigger, std::string_view detail) const;

  Simulator& sim_;
  const FlightRecorderConfig config_;
  const RequestTracer& tracer_;
  const MetricRegistry& registry_;
  std::deque<OpTrace> ring_;
  std::array<bool, kNumFlightTriggers> fired_{};
  std::vector<Dump> dumps_;
  uint64_t triggers_seen_ = 0;
  uint64_t dumps_taken_ = 0;
};

// Validated loader for flight-recorder dump JSON (the negative-test surface:
// a truncated file or a hostile span count must produce an error Status, not
// a crash or an unbounded allocation).
struct ParsedFlightDump {
  std::string trigger;
  std::string detail;
  SimTime sim_time = 0;
  std::vector<OpTrace> traces;       // completed ring, oldest first
  std::vector<OpTrace> live_traces;  // in flight at trigger time
  uint64_t total_spans = 0;
};

Status ParseFlightDump(std::string_view json, ParsedFlightDump* out,
                       size_t max_spans = 1u << 16);

}  // namespace kvd

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
