#include "src/obs/telemetry.h"

namespace kvd {

Telemetry::Telemetry(Simulator& sim, MetricRegistry& metrics, bool enabled,
                     const SloConfig& slo, const FlightRecorderConfig& flight)
    : recorder_(sim, flight, tracer_, metrics),
      slo_(sim, slo, recorder_),
      tracer_(sim, enabled, breakdown_, slo_, recorder_) {
  if (enabled) {
    tracer_.RegisterMetrics(metrics);
    breakdown_.RegisterMetrics(metrics);
    slo_.RegisterMetrics(metrics);
    recorder_.RegisterMetrics(metrics);
  }
}

}  // namespace kvd
