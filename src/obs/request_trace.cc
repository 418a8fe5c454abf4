#include "src/obs/request_trace.h"

#include <algorithm>
#include <cstdio>

#include "src/common/assert.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/json_writer.h"

namespace kvd {

void AppendTraceJson(const OpTrace& trace, JsonWriter& json) {
  json.BeginObject();
  json.Field("id", trace.id);
  json.Field("opcode", std::string_view(OpcodeName(trace.opcode)));
  json.Field("sequence", trace.sequence);
  json.Field("op_index", static_cast<uint64_t>(trace.op_index));
  json.Field("attempts", static_cast<uint64_t>(trace.attempts));
  json.Field("result", std::string_view(ResultCodeName(trace.result)));
  json.Key("points").BeginObject();
  for (size_t i = 0; i < kNumTracePoints; i++) {
    if (trace.points[i] == OpTrace::kAbsent) {
      continue;
    }
    json.Field(TracePointName(static_cast<TracePoint>(i)), trace.points[i]);
  }
  json.EndObject();
  json.Key("spans").BeginArray();
  for (const TraceSpan& span : trace.spans) {
    json.BeginObject();
    json.Field("kind", std::string_view(SpanKindName(span.kind)));
    json.Field("start_ps", span.start);
    json.Field("end_ps", span.end);
    json.Field("detail", span.detail);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

// ---------------------------------------------------------------------------
// LatencyBreakdown

void LatencyBreakdown::Record(const OpTrace& trace) {
  const size_t op = static_cast<size_t>(trace.opcode);
  if (op >= kNumOpcodes) {
    return;
  }
  SimTime prev = OpTrace::kAbsent;
  for (size_t i = 0; i < kNumTracePoints; i++) {
    const SimTime at = trace.points[i];
    if (at == OpTrace::kAbsent) {
      continue;
    }
    if (prev != OpTrace::kAbsent) {
      KVD_DCHECK(at >= prev);
      stages_[op][i].Add(PsToNs(at - prev));
    }
    prev = at;
  }
  if (trace.Has(TracePoint::kClientSend) &&
      trace.Has(TracePoint::kClientReceive)) {
    e2e_[op].Add(PsToNs(trace.EndToEndPs()));
    recorded_++;
  }
}

const LatencyHistogram& LatencyBreakdown::Stage(Opcode opcode,
                                                TracePoint point) const {
  return stages_[static_cast<size_t>(opcode)][static_cast<size_t>(point)];
}

const LatencyHistogram& LatencyBreakdown::EndToEnd(Opcode opcode) const {
  return e2e_[static_cast<size_t>(opcode)];
}

void LatencyBreakdown::RegisterMetrics(MetricRegistry& registry) const {
  for (size_t op = 0; op < kNumOpcodes; op++) {
    const char* opcode = OpcodeName(static_cast<Opcode>(op));
    for (size_t point = 1; point < kNumTracePoints; point++) {
      const LatencyHistogram* hist = &stages_[op][point];
      registry.RegisterHistogram(
          "kvd_trace_stage_ns", "per-stage latency from request traces",
          {{"opcode", opcode}, {"stage", StageName(static_cast<TracePoint>(point))}},
          [hist] { return *hist; });
    }
    const LatencyHistogram* e2e = &e2e_[op];
    registry.RegisterHistogram("kvd_trace_e2e_ns",
                               "end-to-end latency from request traces",
                               {{"opcode", opcode}}, [e2e] { return *e2e; });
  }
}

// ---------------------------------------------------------------------------
// LatencyBreakdownReport

namespace {

// Opcodes that completed at least one traced op, in enum order.
std::vector<size_t> OpcodesWithData(const LatencyBreakdown& breakdown) {
  std::vector<size_t> ops;
  for (size_t op = 0; op < LatencyBreakdown::kNumOpcodes; op++) {
    if (breakdown.EndToEnd(static_cast<Opcode>(op)).count() > 0) {
      ops.push_back(op);
    }
  }
  return ops;
}

double StageSumMeanNs(const LatencyBreakdown& breakdown, size_t op) {
  double sum = 0;
  for (size_t point = 1; point < kNumTracePoints; point++) {
    sum += breakdown
               .Stage(static_cast<Opcode>(op), static_cast<TracePoint>(point))
               .mean();
  }
  return sum;
}

}  // namespace

std::string LatencyBreakdownReport::Table(const LatencyBreakdown& breakdown) {
  const std::vector<size_t> ops = OpcodesWithData(breakdown);
  if (ops.empty()) {
    return "latency breakdown: no traced operations completed\n";
  }
  std::string out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%-14s", "stage");
  out += buf;
  for (const size_t op : ops) {
    std::snprintf(buf, sizeof(buf), " %14s", OpcodeName(static_cast<Opcode>(op)));
    out += buf;
  }
  out += '\n';
  for (size_t point = 1; point < kNumTracePoints; point++) {
    bool any = false;
    for (const size_t op : ops) {
      if (breakdown
              .Stage(static_cast<Opcode>(op), static_cast<TracePoint>(point))
              .count() > 0) {
        any = true;
      }
    }
    if (!any) {
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%-14s",
                  StageName(static_cast<TracePoint>(point)));
    out += buf;
    for (const size_t op : ops) {
      const LatencyHistogram& hist =
          breakdown.Stage(static_cast<Opcode>(op), static_cast<TracePoint>(point));
      if (hist.count() > 0) {
        std::snprintf(buf, sizeof(buf), " %14.1f", hist.mean());
      } else {
        std::snprintf(buf, sizeof(buf), " %14s", "-");
      }
      out += buf;
    }
    out += '\n';
  }
  std::snprintf(buf, sizeof(buf), "%-14s", "stage_sum_ns");
  out += buf;
  for (const size_t op : ops) {
    std::snprintf(buf, sizeof(buf), " %14.1f", StageSumMeanNs(breakdown, op));
    out += buf;
  }
  out += '\n';
  std::snprintf(buf, sizeof(buf), "%-14s", "e2e_ns");
  out += buf;
  for (const size_t op : ops) {
    std::snprintf(buf, sizeof(buf), " %14.1f",
                  breakdown.EndToEnd(static_cast<Opcode>(op)).mean());
    out += buf;
  }
  out += '\n';
  std::snprintf(buf, sizeof(buf), "%-14s", "count");
  out += buf;
  for (const size_t op : ops) {
    std::snprintf(buf, sizeof(buf), " %14llu",
                  static_cast<unsigned long long>(
                      breakdown.EndToEnd(static_cast<Opcode>(op)).count()));
    out += buf;
  }
  out += '\n';
  return out;
}

void LatencyBreakdownReport::AppendJson(const LatencyBreakdown& breakdown,
                                        JsonWriter& json) {
  json.BeginArray();
  for (const size_t op : OpcodesWithData(breakdown)) {
    const Opcode opcode = static_cast<Opcode>(op);
    const LatencyHistogram& e2e = breakdown.EndToEnd(opcode);
    json.BeginObject();
    json.Field("opcode", std::string_view(OpcodeName(opcode)));
    json.Field("count", e2e.count());
    json.Key("stages").BeginArray();
    for (size_t point = 1; point < kNumTracePoints; point++) {
      const LatencyHistogram& hist =
          breakdown.Stage(opcode, static_cast<TracePoint>(point));
      if (hist.count() == 0) {
        continue;
      }
      json.BeginObject();
      json.Field("stage",
                 std::string_view(StageName(static_cast<TracePoint>(point))));
      json.Field("count", hist.count());
      json.Field("mean_ns", hist.mean());
      json.Field("p50_ns", hist.Percentile(0.5));
      json.Field("p99_ns", hist.Percentile(0.99));
      json.EndObject();
    }
    json.EndArray();
    json.Field("stage_sum_mean_ns", StageSumMeanNs(breakdown, op));
    json.Key("e2e").BeginObject();
    json.Field("mean_ns", e2e.mean());
    json.Field("p50_ns", e2e.Percentile(0.5));
    json.Field("p99_ns", e2e.Percentile(0.99));
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
}

std::string LatencyBreakdownReport::ToJson(const LatencyBreakdown& breakdown) {
  JsonWriter json;
  json.BeginObject();
  json.Key("breakdown");
  AppendJson(breakdown, json);
  json.EndObject();
  return json.TakeString();
}

// ---------------------------------------------------------------------------
// SloMonitor

void SloMonitor::Record(uint64_t e2e_ns) {
  if (config_.window > 0) {
    RollTo(sim_.Now());
  }
  window_.Add(e2e_ns);
}

void SloMonitor::RollTo(SimTime now) {
  if (now < window_start_ + config_.window) {
    return;
  }
  if (window_.count() > 0) {
    Evaluate();
    window_.Reset();
  }
  // Tumble straight to the window containing `now`; empty intermediate
  // windows are not evaluated.
  window_start_ = now - (now % config_.window);
}

void SloMonitor::Evaluate() {
  windows_evaluated_++;
  last_p99_ns_ = static_cast<double>(window_.Percentile(0.99));
  if (config_.p99_target_ns > 0 &&
      last_p99_ns_ > static_cast<double>(config_.p99_target_ns)) {
    p99_breaches_++;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "p99 %.0fns > target %lluns", last_p99_ns_,
                  static_cast<unsigned long long>(config_.p99_target_ns));
    recorder_.Trigger(FlightTrigger::kSloBreach, buf);
  }
}

void SloMonitor::RegisterMetrics(MetricRegistry& registry) {
  registry.RegisterCounter("kvd_slo_windows", "SLO windows evaluated", {},
                           &windows_evaluated_);
  registry.RegisterCounter("kvd_slo_p99_breaches", "windows over the p99 target",
                           {}, &p99_breaches_);
  registry.RegisterGauge("kvd_slo_last_p99_ns", "last evaluated window p99", {},
                         [this] { return last_p99_ns_; });
}

// ---------------------------------------------------------------------------
// RequestTracer

uint64_t RequestTracer::Start(Opcode opcode, uint64_t sequence,
                              uint32_t op_index) {
  if (!enabled_) {
    return 0;
  }
  if (live_.size() >= kMaxLive) {
    dropped_++;
    return 0;
  }
  const uint64_t handle = (sequence << 16) | (op_index & 0xffff);
  OpTrace& trace = live_[handle];
  trace.id = handle;
  trace.opcode = opcode;
  trace.sequence = sequence;
  trace.op_index = op_index;
  trace.points[static_cast<size_t>(TracePoint::kClientSend)] = sim_.Now();
  started_++;
  return handle;
}

void RequestTracer::Point(uint64_t handle, TracePoint point) {
  if (handle == 0) {
    return;
  }
  auto it = live_.find(handle);
  if (it == live_.end()) {
    return;
  }
  SimTime& at = it->second.points[static_cast<size_t>(point)];
  if (at == OpTrace::kAbsent) {
    at = sim_.Now();
  }
}

void RequestTracer::Span(uint64_t handle, SpanKind kind, SimTime start,
                         SimTime end, uint64_t detail) {
  if (handle == 0) {
    return;
  }
  auto it = live_.find(handle);
  if (it == live_.end()) {
    return;
  }
  if (it->second.spans.size() >= kMaxSpansPerOp) {
    dropped_++;
    return;
  }
  KVD_DCHECK(end >= start);
  it->second.spans.push_back({kind, start, end, detail});
}

void RequestTracer::CountAttempt(uint64_t handle) {
  if (handle == 0) {
    return;
  }
  auto it = live_.find(handle);
  if (it != live_.end()) {
    it->second.attempts++;
  }
}

void RequestTracer::Finish(uint64_t handle, ResultCode result) {
  if (handle == 0) {
    return;
  }
  auto it = live_.find(handle);
  if (it == live_.end()) {
    return;
  }
  OpTrace& trace = it->second;
  trace.result = result;
  SimTime& received = trace.points[static_cast<size_t>(TracePoint::kClientReceive)];
  if (received == OpTrace::kAbsent) {
    received = sim_.Now();
  }
  breakdown_.Record(trace);
  if (trace.Has(TracePoint::kClientSend)) {
    slo_.Record(PsToNs(trace.EndToEndPs()));
  }
  recorder_.OnTraceComplete(trace);
  finished_++;
  live_.erase(it);
}

void RequestTracer::RegisterPacket(uint64_t sequence,
                                   const std::vector<uint64_t>& handles) {
  if (!enabled_) {
    return;
  }
  bool any = false;
  for (const uint64_t handle : handles) {
    if (handle != 0) {
      any = true;
      break;
    }
  }
  if (!any) {
    return;
  }
  // Sequences grow monotonically per client, so begin() is the oldest entry.
  while (packet_ops_.size() >= kMaxPackets) {
    packet_ops_.erase(packet_ops_.begin());
  }
  packet_ops_[sequence] = handles;
}

uint64_t RequestTracer::LookupOp(uint64_t sequence, size_t op_index) const {
  auto it = packet_ops_.find(sequence);
  if (it == packet_ops_.end() || op_index >= it->second.size()) {
    return 0;
  }
  return it->second[op_index];
}

const OpTrace* RequestTracer::Live(uint64_t handle) const {
  auto it = live_.find(handle);
  return it == live_.end() ? nullptr : &it->second;
}

std::vector<const OpTrace*> RequestTracer::LiveTraces() const {
  std::vector<const OpTrace*> traces;
  traces.reserve(live_.size());
  for (const auto& [handle, trace] : live_) {
    traces.push_back(&trace);
  }
  return traces;
}

void RequestTracer::RegisterMetrics(MetricRegistry& registry) {
  registry.RegisterCounter("kvd_trace_started", "request traces started", {},
                           &started_);
  registry.RegisterCounter("kvd_trace_finished", "request traces completed", {},
                           &finished_);
  registry.RegisterCounter("kvd_trace_dropped",
                           "trace records dropped at capacity bounds", {},
                           &dropped_);
}

}  // namespace kvd
