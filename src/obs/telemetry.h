// One owner's request-telemetry stack: the RequestTracer and its three
// consumers, wired once, here (DESIGN.md §10).
//
// A finished trace feeds the latency breakdown, the SLO monitor, and the
// flight recorder's ring; an SLO breach triggers the recorder, whose dumps
// carry the live traces and a snapshot of the owner's metric registry. A
// standalone server, a replication group and a cluster coordinator each own
// exactly one stack; the replicas of a group run on the group's.
#ifndef SRC_OBS_TELEMETRY_H_
#define SRC_OBS_TELEMETRY_H_

#include "src/obs/flight_recorder.h"
#include "src/obs/metric_registry.h"
#include "src/obs/request_trace.h"
#include "src/sim/simulator.h"

namespace kvd {

class Telemetry {
 public:
  // `metrics` is the owner's registry: the recorder's dumps snapshot it, and
  // the tracing metrics join it only when `enabled`, so the default
  // exposition is the same as an untraced build's. Both `sim` and `metrics`
  // must outlive the stack.
  Telemetry(Simulator& sim, MetricRegistry& metrics, bool enabled,
            const SloConfig& slo, const FlightRecorderConfig& flight);
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  RequestTracer& request_tracer() { return tracer_; }
  LatencyBreakdown& breakdown() { return breakdown_; }
  SloMonitor& slo_monitor() { return slo_; }
  FlightRecorder& flight_recorder() { return recorder_; }

 private:
  // The recorder binds the tracer before it is built; it reads the tracer
  // only when a dump or a Chrome trace is rendered.
  LatencyBreakdown breakdown_;
  FlightRecorder recorder_;
  SloMonitor slo_;
  RequestTracer tracer_;
};

}  // namespace kvd

#endif  // SRC_OBS_TELEMETRY_H_
