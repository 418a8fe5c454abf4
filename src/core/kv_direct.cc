#include "src/core/kv_direct.h"

#include <utility>

#include "src/common/assert.h"

namespace kvd {
namespace {

// Frame budget for batched calls; the frame header comes out of it, so a
// full batch still fits one wire MTU instead of spilling into a second
// segment.
constexpr uint32_t kPacketBytes = 4096;
constexpr uint32_t kOpsBudget =
    kPacketBytes - static_cast<uint32_t>(kFrameHeaderBytes);
// Op-level kBusy retry: the wait doubles per round; the still-busy ops time
// out after the last round.
constexpr SimTime kBusyBackoff = 10 * kMicrosecond;
constexpr uint32_t kMaxBusyRetries = 16;

Status ToStatus(ResultCode code) {
  switch (code) {
    case ResultCode::kOk:
      return Status::Ok();
    case ResultCode::kNotFound:
      return Status::NotFound();
    case ResultCode::kOutOfMemory:
      return Status::OutOfMemory();
    case ResultCode::kInvalidArgument:
      return Status::InvalidArgument();
    case ResultCode::kBusy:
      return Status(StatusCode::kResourceBusy);
    case ResultCode::kDeadlineExceeded:
      return Status(StatusCode::kTimedOut);
    case ResultCode::kOverloaded:
      return Status(StatusCode::kResourceBusy);
    case ResultCode::kTimedOut:
      return Status(StatusCode::kTimedOut);
    case ResultCode::kWrongShard:
    case ResultCode::kMigrating:
      // Cluster shard bounces (DESIGN.md §14) are routing control flow; a
      // single server never emits them, and a client that surfaces one here
      // treats it as a retryable busy condition.
      return Status(StatusCode::kResourceBusy);
  }
  return Status::Internal();
}

}  // namespace

KvDirectServer::KvDirectServer(const ServerConfig& config, Simulator* external_sim,
                               Telemetry* external_telemetry)
    : runtime_(config, external_sim, external_telemetry),
      endpoint_(runtime_.simulator(),
                {config.replay_cache_entries, config.replay_retain_time}) {
  // The transport endpoint's counters join the runtime's registry so one
  // exposition covers the whole node.
  MetricRegistry& metrics = runtime_.metrics_mutable();
  metrics.RegisterCounter("kvd_server_replayed_responses_total",
                          "Retransmitted requests answered from the replay cache",
                          {}, endpoint_.replayed_responses_counter());
  metrics.RegisterCounter("kvd_server_corrupt_frames_total",
                          "Request frames dropped on checksum failure", {},
                          endpoint_.corrupt_frames_counter());
  metrics.RegisterCounter("kvd_server_stale_retransmits_total",
                          "Retransmits dropped while the original executes", {},
                          endpoint_.stale_retransmits_counter());
  metrics.RegisterCounter("kvd_replay_evict_scan_steps_total",
                          "Replay-cache eviction queue entries examined", {},
                          endpoint_.evict_scan_steps_counter());
}

void KvDirectServer::Submit(KvOperation op, KvProcessor::Completion done) {
  runtime_.processor().Submit(std::move(op), std::move(done));
}

void KvDirectServer::Submit(KvOperation op, KvProcessor::Completion done,
                            OpClass cls) {
  runtime_.processor().Submit(std::move(op), std::move(done), cls);
}

void KvDirectServer::DeliverPacket(std::vector<uint8_t> payload,
                                   std::function<void(std::vector<uint8_t>)> respond,
                                   uint64_t traced_sequence) {
  PacketParser parser(std::move(payload));
  std::vector<KvOperation> ops;
  while (true) {
    Result<std::optional<KvOperation>> next = parser.Next();
    if (!next.ok()) {
      // Malformed packet: respond with a single error result.
      KvResultMessage error;
      error.code = ResultCode::kInvalidArgument;
      respond(EncodeResults({error}));
      return;
    }
    if (!next->has_value()) {
      break;
    }
    ops.push_back(std::move(**next));
  }
  if (ops.empty()) {
    respond({});
    return;
  }
  // Collect results in request order; respond when the last one retires.
  const uint32_t packet = packets_.Allocate();
  PacketState& state = packets_[packet];
  state.results.resize(ops.size());
  state.traces.clear();
  state.remaining = ops.size();
  state.respond = std::move(respond);
  RequestTracer& tracer = runtime_.request_tracer();
  if (traced_sequence != 0 && tracer.enabled()) {
    // Resolve each op's trace handle from the client-registered packet map
    // and stamp kServerReceive (first delivery wins, so retransmissions and
    // injected duplicates cannot move it).
    state.traces.resize(ops.size());
    for (size_t i = 0; i < ops.size(); i++) {
      const uint64_t handle = tracer.LookupOp(traced_sequence, i);
      state.traces[i] = handle;
      ops[i].trace = handle;
      if (handle != 0) {
        tracer.Point(handle, TracePoint::kServerReceive);
      }
    }
  }
  for (size_t i = 0; i < ops.size(); i++) {
    const auto op = static_cast<uint32_t>(i);
    runtime_.processor().Submit(std::move(ops[i]),
                                [this, packet, op](KvResultMessage result) {
                                  OnPacketOpDone(packet, op, std::move(result));
                                });
  }
}

void KvDirectServer::OnPacketOpDone(uint32_t packet, uint32_t op,
                                    KvResultMessage result) {
  PacketState& state = packets_[packet];
  state.results[op] = std::move(result);
  if (--state.remaining != 0) {
    return;
  }
  for (const uint64_t handle : state.traces) {
    if (handle != 0) {
      runtime_.request_tracer().Point(handle, TracePoint::kResponseSent);
    }
  }
  std::vector<uint8_t> response = EncodeResults(state.results);
  // Recycle the state before responding: the response may deliver the next
  // packet, which allocates from the same pool.
  std::function<void(std::vector<uint8_t>)> respond = std::move(state.respond);
  packets_.Free(packet);
  respond(std::move(response));
}

void KvDirectServer::DeliverFrame(std::vector<uint8_t> packet,
                                  std::function<void(std::vector<uint8_t>)> respond) {
  // The endpoint drops corrupt frames (the client's retransmission timer
  // covers them), replays cached responses, and swallows retransmissions of
  // still-executing sequences; only genuinely new frames come back.
  std::optional<Frame> frame = endpoint_.Accept(packet, respond);
  if (!frame.has_value()) {
    return;
  }
  endpoint_.Admit(frame->sequence);
  const uint64_t sequence = frame->sequence;
  DeliverPacket(
      std::vector<uint8_t>(frame->payload.begin(), frame->payload.end()),
      [this, sequence, respond = std::move(respond)](
          std::vector<uint8_t> response) {
        respond(endpoint_.Complete(sequence, response, /*cache=*/true));
      },
      /*traced_sequence=*/sequence);
}

KvResultMessage KvDirectServer::Execute(const KvOperation& op) {
  return runtime_.processor().ExecuteFunctional(op, HashKey(op.key));
}

Status KvDirectServer::Load(std::span<const uint8_t> key,
                            std::span<const uint8_t> value) {
  return runtime_.index().Put(key, value);
}

Client::Client(KvDirectServer& server, Options options)
    : server_(server),
      options_(options),
      next_sequence_(server.AcquireClientSequenceBase()),
      sender_(
          server.simulator(),
          ReliableSender::RetryPolicy{
              .timeout = options_.retry.timeout,
              .max_attempts = options_.retry.max_attempts,
              .backoff_shift_cap = 20,
              .attempts_per_target = 0,
              .num_targets = 1,
              // The sequence base is unique per client on a server, so each
              // client gets its own deterministic jitter stream.
              .jitter_seed = next_sequence_,
              .retry_budget = options_.retry.retry_budget},
          &stats_, server_.request_tracer(),
          [this](const ReliableSender::PacketPtr& packet) { Wire(packet); },
          [this](const ReliableSender::PacketPtr& packet) { OnFail(packet); }) {}


KvResultMessage Client::Call(KvOperation op) {
  pending_.push_back(std::move(op));
  std::vector<KvResultMessage> results = Flush();
  KVD_CHECK(results.size() == 1);
  return std::move(results[0]);
}

Result<std::vector<uint8_t>> Client::Get(std::span<const uint8_t> key) {
  KvOperation op;
  op.opcode = Opcode::kGet;
  op.key.assign(key.begin(), key.end());
  KvResultMessage result = Call(std::move(op));
  if (result.code != ResultCode::kOk) {
    return ToStatus(result.code);
  }
  return std::move(result.value);
}

Status Client::Put(std::span<const uint8_t> key, std::span<const uint8_t> value) {
  KvOperation op;
  op.opcode = Opcode::kPut;
  op.key.assign(key.begin(), key.end());
  op.value.assign(value.begin(), value.end());
  return ToStatus(Call(std::move(op)).code);
}

Status Client::Delete(std::span<const uint8_t> key) {
  KvOperation op;
  op.opcode = Opcode::kDelete;
  op.key.assign(key.begin(), key.end());
  return ToStatus(Call(std::move(op)).code);
}

Result<uint64_t> Client::Update(std::span<const uint8_t> key, uint64_t param,
                                uint16_t function_id, uint8_t element_width) {
  KvOperation op;
  op.opcode = Opcode::kUpdateScalar;
  op.key.assign(key.begin(), key.end());
  op.param = param;
  op.function_id = function_id;
  op.element_width = element_width;
  KvResultMessage result = Call(std::move(op));
  if (result.code != ResultCode::kOk) {
    return ToStatus(result.code);
  }
  return result.scalar;
}

Result<std::vector<uint8_t>> Client::UpdateVectorWithScalar(
    std::span<const uint8_t> key, uint64_t param, uint16_t function_id,
    uint8_t element_width) {
  KvOperation op;
  op.opcode = Opcode::kUpdateScalarVector;
  op.key.assign(key.begin(), key.end());
  op.param = param;
  op.function_id = function_id;
  op.element_width = element_width;
  KvResultMessage result = Call(std::move(op));
  if (result.code != ResultCode::kOk) {
    return ToStatus(result.code);
  }
  return std::move(result.value);
}

Result<std::vector<uint8_t>> Client::UpdateVectorWithVector(
    std::span<const uint8_t> key, std::span<const uint8_t> params,
    uint16_t function_id, uint8_t element_width) {
  KvOperation op;
  op.opcode = Opcode::kUpdateVector;
  op.key.assign(key.begin(), key.end());
  op.value.assign(params.begin(), params.end());
  op.function_id = function_id;
  op.element_width = element_width;
  KvResultMessage result = Call(std::move(op));
  if (result.code != ResultCode::kOk) {
    return ToStatus(result.code);
  }
  return std::move(result.value);
}

Result<uint64_t> Client::Reduce(std::span<const uint8_t> key, uint64_t initial,
                                uint16_t function_id, uint8_t element_width) {
  KvOperation op;
  op.opcode = Opcode::kReduce;
  op.key.assign(key.begin(), key.end());
  op.param = initial;
  op.function_id = function_id;
  op.element_width = element_width;
  KvResultMessage result = Call(std::move(op));
  if (result.code != ResultCode::kOk) {
    return ToStatus(result.code);
  }
  return result.scalar;
}

Result<std::vector<uint8_t>> Client::Filter(std::span<const uint8_t> key,
                                            uint64_t param, uint16_t function_id,
                                            uint8_t element_width) {
  KvOperation op;
  op.opcode = Opcode::kFilter;
  op.key.assign(key.begin(), key.end());
  op.param = param;
  op.function_id = function_id;
  op.element_width = element_width;
  KvResultMessage result = Call(std::move(op));
  if (result.code != ResultCode::kOk) {
    return ToStatus(result.code);
  }
  return std::move(result.value);
}

size_t Client::Enqueue(KvOperation op) {
  pending_.push_back(std::move(op));
  return pending_.size() - 1;
}

// Per-flush state. Lives in a shared_ptr because injected duplicates can
// deliver a response *after* the flush loop has already drained — such late
// arrivals must find live state, not a dead stack frame.
struct Client::FlushState {
  std::vector<KvResultMessage> results;
  std::vector<uint64_t> traces;  // per-op trace handles (0 when untraced)
  size_t outstanding = 0;
};

// Per-packet state shared by the transmission chain, the retransmission
// timer, and (possibly duplicated) response deliveries. The retry fields
// (sequence, framed bytes, attempts, completion) live in the ReliablePacket
// base the sender drives.
struct Client::PacketCtx : ReliablePacket {
  std::vector<size_t> op_indices;  // result slots, in packet order
  std::shared_ptr<FlushState> flush;
};

void Client::RunFor(SimTime duration) {
  Simulator& sim = server_.simulator();
  bool fired = false;
  sim.ScheduleAt(sim.Now() + duration, [&fired] { fired = true; });
  while (!fired) {
    KVD_CHECK(sim.Step());
  }
}

// One wire round trip for the sender: frame copy to the server, framed
// delivery, framed response back to OnResponse. Fault sites on both wire
// directions may drop/duplicate/corrupt; the sender's timer recovers.
void Client::Wire(const ReliableSender::PacketPtr& packet) {
  auto ctx = std::static_pointer_cast<PacketCtx>(packet);
  std::vector<uint8_t> copy = ctx->framed;
  server_.network().SendPayloadToServer(
      std::move(copy),
      [this, ctx](std::vector<uint8_t> request) {
        server_.DeliverFrame(
            std::move(request), [this, ctx](std::vector<uint8_t> response) {
              server_.network().SendPayloadToClient(
                  std::move(response),
                  [this, ctx](std::vector<uint8_t> delivered) {
                    OnResponse(ctx, std::move(delivered));
                  },
                  ctx->traces);
            });
      },
      ctx->traces);
}

// The sender gave up on the packet: retransmission attempts exhausted
// (kTimedOut) or its deadline passed / budget ran dry. Surface the sender's
// fail code on every operation in the packet and unblock the flush — callers
// get a status, not a dead process.
void Client::OnFail(const ReliableSender::PacketPtr& packet) {
  auto ctx = std::static_pointer_cast<PacketCtx>(packet);
  KvResultMessage failed;
  failed.code = ctx->fail_code;
  for (const size_t idx : ctx->op_indices) {
    ctx->flush->results[idx] = failed;
  }
  RequestTracer& rt = server_.request_tracer();
  if (!ctx->traces.empty() && rt.enabled()) {
    for (const uint64_t handle : ctx->traces) {
      if (handle != 0) {
        rt.Finish(handle, ctx->fail_code);
      }
    }
  }
  ctx->flush->outstanding--;
}

void Client::OnResponse(const std::shared_ptr<PacketCtx>& ctx,
                        std::vector<uint8_t> packet) {
  std::optional<std::span<const uint8_t>> payload =
      sender_.AcceptResponse(ctx, packet);
  if (!payload.has_value()) {
    return;  // duplicate, corrupt, or foreign frame — counted by the sender
  }
  Result<std::vector<KvResultMessage>> decoded = DecodeResults(*payload);
  if (!decoded.ok()) {
    sender_.NoteCorruptResponse();
    return;
  }
  std::vector<KvResultMessage>& results = ctx->flush->results;
  if (decoded->size() == ctx->op_indices.size()) {
    for (size_t i = 0; i < decoded->size(); i++) {
      results[ctx->op_indices[i]] = std::move((*decoded)[i]);
    }
  } else if (decoded->size() == 1 &&
             (*decoded)[0].code == ResultCode::kInvalidArgument) {
    // The server rejected the whole packet as malformed.
    for (const size_t idx : ctx->op_indices) {
      results[idx] = (*decoded)[0];
    }
  } else {
    sender_.NoteCorruptResponse();  // checksum-valid but inconsistent: re-ask
    return;
  }
  ctx->completed = true;
  ctx->flush->outstanding--;
  RequestTracer& rt = server_.request_tracer();
  if (!ctx->traces.empty() && rt.enabled()) {
    for (size_t i = 0; i < ctx->op_indices.size(); i++) {
      const uint64_t handle = ctx->traces[i];
      const ResultCode code = results[ctx->op_indices[i]].code;
      if (handle == 0 || code == ResultCode::kBusy ||
          code == ResultCode::kOverloaded) {
        continue;  // bounced ops stay live: re-sent under a new sequence
      }
      rt.Finish(handle, code);
    }
  }
}

void Client::SendBatch(const std::vector<KvOperation>& ops,
                       const std::vector<size_t>& indices,
                       const std::shared_ptr<FlushState>& flush) {
  size_t next = 0;
  while (next < indices.size()) {
    PacketBuilder builder(kOpsBudget, /*enable_compression=*/true);
    const size_t first = next;
    while (next < indices.size() && next - first < options_.max_ops_per_packet &&
           builder.Add(ops[indices[next]])) {
      next++;
    }
    KVD_CHECK_MSG(next > first, "operation exceeds packet payload budget");
    auto ctx = std::make_shared<PacketCtx>();
    ctx->sequence = next_sequence_++;
    ctx->op_indices.assign(indices.begin() + first, indices.begin() + next);
    ctx->framed = FramePacket(ctx->sequence, builder.Finish());
    ctx->flush = flush;
    // The packet dies with its most urgent op: past that point the sender
    // stops retransmitting the whole frame.
    for (const size_t idx : ctx->op_indices) {
      const SimTime d = ops[idx].deadline;
      if (d != 0 && (ctx->deadline == 0 || d < ctx->deadline)) {
        ctx->deadline = d;
      }
    }
    RequestTracer& rt = server_.request_tracer();
    if (rt.enabled()) {
      // First send starts the trace; a busy re-send keeps its handle and
      // re-registers it under the new wire sequence so the server-side
      // lookup still resolves.
      ctx->traces.reserve(ctx->op_indices.size());
      for (size_t i = 0; i < ctx->op_indices.size(); i++) {
        const size_t idx = ctx->op_indices[i];
        uint64_t& handle = flush->traces[idx];
        if (handle == 0) {
          handle = rt.Start(ops[idx].opcode, ctx->sequence,
                            static_cast<uint32_t>(i));
        }
        ctx->traces.push_back(handle);
      }
      rt.RegisterPacket(ctx->sequence, ctx->traces);
    }
    flush->outstanding++;
    stats_.packets_sent++;
    sender_.Send(ctx);
  }
}

std::vector<KvResultMessage> Client::Flush() {
  std::vector<KvOperation> ops = std::move(pending_);
  pending_.clear();
  if (ops.empty()) {
    return {};
  }
  Simulator& sim = server_.simulator();
  auto flush = std::make_shared<FlushState>();
  flush->results.resize(ops.size());
  flush->traces.resize(ops.size(), 0);

  std::vector<size_t> indices(ops.size());
  for (size_t i = 0; i < ops.size(); i++) {
    indices[i] = i;
  }
  uint32_t busy_round = 0;
  while (true) {
    SendBatch(ops, indices, flush);
    while (flush->outstanding > 0) {
      KVD_CHECK_MSG(sim.Step(), "simulation idle with packets outstanding");
    }
    // Operations bounced with kBusy/kOverloaded are re-sent — and only
    // those, under new sequences: their effects did not happen, while the
    // rest of the packet already executed and must not run twice. An op
    // whose deadline has passed gives up as kDeadlineExceeded instead.
    RequestTracer& tracer = server_.request_tracer();
    std::vector<size_t> busy;
    for (const size_t idx : indices) {
      const ResultCode code = flush->results[idx].code;
      if (code != ResultCode::kBusy && code != ResultCode::kOverloaded) {
        continue;
      }
      if (ops[idx].deadline != 0 && sim.Now() >= ops[idx].deadline) {
        flush->results[idx].code = ResultCode::kDeadlineExceeded;
        if (tracer.enabled() && flush->traces[idx] != 0) {
          tracer.Finish(flush->traces[idx], ResultCode::kDeadlineExceeded);
        }
        continue;
      }
      busy.push_back(idx);
    }
    if (busy.empty()) {
      break;
    }
    if (busy_round >= kMaxBusyRetries) {
      // Budget exhausted: the still-busy operations time out instead of
      // retrying forever (or killing the process).
      KvResultMessage timed_out;
      timed_out.code = ResultCode::kTimedOut;
      RequestTracer& rt = server_.request_tracer();
      for (const size_t idx : busy) {
        flush->results[idx] = timed_out;
        if (rt.enabled() && flush->traces[idx] != 0) {
          rt.Finish(flush->traces[idx], ResultCode::kTimedOut);
        }
      }
      break;
    }
    const SimTime backoff = kBusyBackoff << busy_round;
    busy_round++;
    stats_.busy_retries += busy.size();
    const SimTime backoff_start = sim.Now();
    RunFor(backoff);
    RequestTracer& rt = server_.request_tracer();
    if (rt.enabled()) {
      for (const size_t idx : busy) {
        rt.Span(flush->traces[idx], SpanKind::kBusyRetry, backoff_start,
                sim.Now(), busy_round);
      }
    }
    indices = std::move(busy);
  }
  return std::move(flush->results);
}

bool Client::SubmitPacket(std::vector<uint8_t> ops_payload,
                          std::function<void()> done) {
  stats_.packets_sent++;
  NetworkModel& network = server_.network();
  // The payload size must be read before the move below captures it (the
  // evaluation order of arguments vs. captures is unspecified).
  const auto payload_size = static_cast<uint32_t>(ops_payload.size());
  network.SendToServer(
      payload_size,
      [this, payload = std::move(ops_payload), done = std::move(done),
       &network]() mutable {
        server_.DeliverPacket(
            std::move(payload),
            [done = std::move(done), &network](std::vector<uint8_t> response) {
              const auto response_size = static_cast<uint32_t>(response.size());
              network.SendToClient(response_size,
                                   [done = std::move(done)] { done(); });
            });
      });
  return true;
}

}  // namespace kvd
