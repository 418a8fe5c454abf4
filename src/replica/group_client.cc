#include "src/replica/group_client.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/common/assert.h"
#include "src/net/wire_format.h"
#include "src/transport/frame.h"

namespace kvd {
namespace {

// Packet size budget: the frame header and the GroupRequest watermark word
// come out of it, the ops payload gets the rest.
constexpr uint32_t kPacketBytes = 4096;
constexpr uint32_t kOpsBudget =
    kPacketBytes - static_cast<uint32_t>(kFrameHeaderBytes) - 8;

}  // namespace

GroupClient::GroupClient(Simulator& sim, RequestTracer& tracer,
                         uint64_t sequence_base, const Config& config)
    : sim_(sim),
      tracer_(tracer),
      config_(config),
      next_sequence_(sequence_base),
      sender_(sim,
              ReliableSender::RetryPolicy{
                  .timeout = config.timeout,
                  .max_attempts = config.max_attempts,
                  .backoff_shift_cap = 6,
                  .attempts_per_target = config.attempts_per_target,
                  .num_targets = config.replicas,
                  .jitter_seed = sequence_base},
              &stats_, tracer_,
              [this](const ReliableSender::PacketPtr& packet) {
                auto p = std::static_pointer_cast<Packet>(packet);
                Wire(p, p->target, /*hedge=*/false);
              },
              [this](const ReliableSender::PacketPtr& packet) {
                OnFail(std::static_pointer_cast<Packet>(packet));
              }) {}

size_t GroupClient::Enqueue(KvOperation op) {
  pending_.push_back(std::move(op));
  return pending_.size() - 1;
}

void GroupClient::BeginFlush() {
  KVD_CHECK_MSG(flush_done(), "previous flush still in progress");
  flush_ = std::make_shared<FlushState>();
  flush_->results.resize(pending_.size());
  std::vector<KvOperation> ops = std::move(pending_);
  pending_.clear();
  if (ops.empty()) {
    return;
  }
  std::vector<size_t> slots(ops.size());
  std::iota(slots.begin(), slots.end(), 0);
  std::vector<PacketPtr> packets = Build(std::move(ops), slots, flush_);
  flush_->outstanding = packets.size();
  for (const PacketPtr& packet : packets) {
    Send(packet);
  }
}

bool GroupClient::flush_done() const {
  return flush_ == nullptr || flush_->outstanding == 0;
}

std::vector<KvResultMessage> GroupClient::TakeResults() {
  KVD_CHECK_MSG(flush_ != nullptr && flush_->outstanding == 0,
                "flush not complete");
  std::vector<KvResultMessage> results = std::move(flush_->results);
  flush_.reset();
  return results;
}

std::vector<KvResultMessage> GroupClient::Flush() {
  BeginFlush();
  while (!flush_done()) {
    KVD_CHECK(sim_.Step());  // group heartbeats keep the queue non-empty
  }
  return TakeResults();
}

std::vector<GroupClient::PacketPtr> GroupClient::Pack(
    std::vector<KvOperation> ops, const std::vector<size_t>& slots,
    const std::shared_ptr<FlushState>& flush) {
  PacketBuilder builder(kOpsBudget, /*enable_compression=*/true);
  std::vector<PacketPtr> packets;
  auto packet = std::make_shared<Packet>();
  packet->flush = flush;
  for (size_t i = 0; i < ops.size(); i++) {
    if (!builder.Add(ops[i])) {
      KVD_CHECK_MSG(!packet->ops.empty(), "operation exceeds the packet budget");
      packet->ops_payload = builder.Finish();
      packets.push_back(std::move(packet));
      packet = std::make_shared<Packet>();
      packet->flush = flush;
      KVD_CHECK(builder.Add(ops[i]));
    }
    if (ops[i].deadline != 0) {
      // Earliest op deadline bounds the packet: past it the sender abandons
      // the frame with kDeadlineExceeded instead of retrying into a bounce
      // chain (failover, migration freeze) nobody is waiting out.
      packet->deadline = packet->deadline == 0
                             ? ops[i].deadline
                             : std::min(packet->deadline, ops[i].deadline);
    }
    packet->is_write = packet->is_write || IsWriteOpcode(ops[i].opcode);
    packet->op_indices.push_back(slots[i]);
    packet->ops.push_back(std::move(ops[i]));
  }
  if (!packet->ops.empty()) {
    packet->ops_payload = builder.Finish();
    packets.push_back(std::move(packet));
  }
  return packets;
}

void GroupClient::Send(const PacketPtr& packet) {
  packet->sequence = next_sequence_++;
  if (config_.trace_ops && tracer_.enabled()) {
    // The sequence never changes across retransmissions or bounces, so one
    // registration covers them all.
    packet->traces.reserve(packet->ops.size());
    for (size_t i = 0; i < packet->ops.size(); i++) {
      packet->traces.push_back(tracer_.Start(packet->ops[i].opcode,
                                             packet->sequence,
                                             static_cast<uint32_t>(i)));
    }
    tracer_.RegisterPacket(packet->sequence, packet->traces);
  }
  Route(*packet);
  packet->sent_at = sim_.Now();
  stats_.packets_sent++;
  sender_.Send(packet);
  OnSent(packet);
}

void GroupClient::Frame(Packet& packet, uint64_t required_index,
                        std::optional<uint64_t> map_epoch) {
  GroupRequestHeader header;
  header.required_index = required_index;
  if (map_epoch.has_value()) {
    header.has_route = true;
    header.map_epoch = *map_epoch;
    header.partition = packet.partition;
  }
  // Encoded in place after the frame header room, then sealed: a reframe
  // reuses the packet's buffer.
  std::vector<uint8_t>& framed = packet.framed;
  framed.clear();
  framed.reserve(kFrameHeaderBytes +
                 GroupRequestBytes(header, packet.ops_payload.size()));
  framed.resize(kFrameHeaderBytes);
  AppendGroupRequest(framed, header, packet.ops_payload);
  SealFrame(packet.sequence, framed);
}

void GroupClient::Wire(const PacketPtr& packet, uint32_t target, bool hedge) {
  // The group is fixed per transmission: a bounce may reroute the packet
  // while this copy is still in flight.
  const uint32_t group = packet->group;
  Group(group).client_network(target).SendPayloadToServer(
      packet->framed,
      [this, packet, group, target, hedge](std::vector<uint8_t> request) {
        Group(group).DeliverClientFrame(
            target, std::move(request),
            [this, packet, group, target, hedge](std::vector<uint8_t> response) {
              Group(group).client_network(target).SendPayloadToClient(
                  std::move(response),
                  [this, packet, hedge](std::vector<uint8_t> bytes) {
                    OnResponse(packet, std::move(bytes), hedge);
                  },
                  packet->traces);
            });
      },
      packet->traces);
}

void GroupClient::BackoffResend(const PacketPtr& packet, SimTime delay,
                                uint8_t cause) {
  const SimTime bounced_at = sim_.Now();
  sim_.Schedule(delay, [this, packet, cause, bounced_at] {
    if (packet->completed) {
      return;
    }
    for (uint64_t handle : packet->traces) {
      tracer_.Span(handle, SpanKind::kBusyRetry, bounced_at, sim_.Now(), cause);
    }
    sender_.Resend(packet);
  });
}

void GroupClient::Abort(const PacketPtr& packet) {
  packet->fail_code = ResultCode::kTimedOut;
  packet->failed = true;
  packet->completed = true;
  OnFail(packet);
}

uint32_t& GroupClient::BelievedPrimary(uint32_t group) {
  if (group >= believed_primary_.size()) {
    believed_primary_.resize(group + 1, 0);
  }
  return believed_primary_[group];
}

void GroupClient::OnFail(const PacketPtr& packet) {
  KvResultMessage failed;
  failed.code = packet->fail_code;  // kTimedOut, or kDeadlineExceeded past budget
  for (size_t index : packet->op_indices) {
    packet->flush->results[index] = failed;
  }
  if (!packet->traces.empty() && tracer_.enabled()) {
    for (uint64_t handle : packet->traces) {
      if (handle != 0) {
        tracer_.Finish(handle, packet->fail_code);
      }
    }
  }
  packet->flush->outstanding--;
}

void GroupClient::OnResponse(const PacketPtr& packet, std::vector<uint8_t> bytes,
                             bool from_hedge) {
  std::optional<std::span<const uint8_t>> payload =
      sender_.AcceptResponse(packet, bytes);
  if (!payload.has_value()) {
    return;  // duplicate, corrupt, or foreign frame — counted by the sender
  }
  Result<GroupResponse> decoded = DecodeGroupResponse(*payload);
  if (!decoded.ok()) {
    sender_.NoteCorruptResponse();
    return;
  }
  const GroupResponse& response = decoded.value();
  if (OnShardBounce(packet, response)) {
    return;
  }
  if ((response.flags & (kGroupRedirect | kGroupStaleRead)) != 0) {
    const bool redirect = (response.flags & kGroupRedirect) != 0;
    (redirect ? stats_.redirects_followed : stats_.stale_retries)++;
    // Chase the responder's view of the primary: it always satisfies the
    // watermark, and writes only land there anyway. Back off a beat so the
    // group converges instead of being hammered mid-failover.
    BelievedPrimary(packet->group) = response.primary_id;
    sender_.Retarget(packet, response.primary_id);
    BackoffResend(packet, config_.redirect_backoff,
                  redirect ? kGroupRedirect : kGroupStaleRead);
    return;
  }

  Result<std::vector<KvResultMessage>> results =
      DecodeResults(response.results_payload);
  if (!results.ok()) {
    sender_.NoteCorruptResponse();
    return;  // retransmission timer recovers
  }
  std::vector<KvResultMessage>& slots = results.value();
  std::vector<KvResultMessage>& flushed = packet->flush->results;
  if (slots.size() == 1 && slots[0].code == ResultCode::kInvalidArgument &&
      packet->op_indices.size() != 1) {
    // The server rejected the whole packet with a single error result.
    for (size_t index : packet->op_indices) {
      flushed[index] = slots[0];
    }
  } else if (slots.size() == packet->op_indices.size()) {
    for (size_t i = 0; i < slots.size(); i++) {
      flushed[packet->op_indices[i]] = std::move(slots[i]);
    }
  } else {
    sender_.NoteCorruptResponse();
    return;
  }
  packet->completed = true;
  OnAnswered(*packet, from_hedge);
  for (size_t i = 0; i < packet->traces.size(); i++) {
    tracer_.Finish(packet->traces[i], flushed[packet->op_indices[i]].code);
  }
  BelievedPrimary(packet->group) = response.primary_id;
  // A write moves its key's watermark to the acking group's committed index;
  // a mark left by another group is replaced, since indices are per group.
  for (const KvOperation& op : packet->ops) {
    if (!IsWriteOpcode(op.opcode)) {
      continue;
    }
    Watermark& mark = watermarks_[op.key];
    if (mark.group != packet->group || response.assigned_index > mark.index) {
      const Watermark before = mark;
      mark = Watermark{packet->group, response.assigned_index};
      OnWatermark(op.key, before, mark);
    }
  }
  packet->flush->outstanding--;
}

}  // namespace kvd
