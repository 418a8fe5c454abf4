#include "src/replica/replicated_client.h"

#include <algorithm>

namespace kvd {
namespace {

constexpr SimTime kRedirectBackoff = 50 * kMicrosecond;
constexpr SimTime kHedgeMinDelay = 10 * kMicrosecond;

}  // namespace

ReplicatedClient::ReplicatedClient(ReplicationGroup& group, Options options)
    : GroupClient(group.simulator(), group.request_tracer(),
                  group.AcquireClientSequenceBase(),
                  Config{.timeout = options.timeout,
                         .max_attempts = options.max_attempts,
                         .attempts_per_target = options.attempts_per_target,
                         .replicas = group.num_replicas(),
                         .redirect_backoff = kRedirectBackoff,
                         .trace_ops = true}),
      group_(group),
      options_(options) {
  BelievedPrimary(0) = group.primary_id();
}

void ReplicatedClient::Route(Packet& packet) {
  // Read-your-writes: the serving replica must have applied the highest
  // index this client's acked writes of the packet's keys reached.
  uint64_t required = 0;
  for (const KvOperation& op : packet.ops) {
    auto mark = watermarks().find(op.key);
    if (mark != watermarks().end()) {
      required = std::max(required, mark->second.index);
    }
  }
  Frame(packet, required, /*map_epoch=*/std::nullopt);
  if (packet.is_write) {
    packet.target = BelievedPrimary(0);
  } else {
    packet.target = next_read_target_ % group_.num_replicas();
    next_read_target_++;
  }
}

void ReplicatedClient::OnSent(const PacketPtr& packet) {
  if (!options_.hedge_reads || packet->is_write || group_.num_replicas() <= 1) {
    return;
  }
  // Deadline-aware hedge: if the read is still unanswered after the adaptive
  // delay (and not already past its deadline), race a duplicate against the
  // next replica. Same frame sequence, so whichever copy loses is absorbed by
  // response dedup / the replay cache.
  group_.simulator().Schedule(HedgeDelay(), [this, packet] {
    if (packet->completed) {
      return;
    }
    if (packet->deadline != 0 && group_.simulator().Now() >= packet->deadline) {
      return;
    }
    stats_.hedged_sends++;
    packet->hedged_at = group_.simulator().Now();
    Wire(packet, (packet->target + 1) % group_.num_replicas(), /*hedge=*/true);
  });
}

void ReplicatedClient::OnAnswered(const Packet& packet, bool from_hedge) {
  if (!packet.is_write) {
    // The round trip of the copy that answered. A hedge win counts from the
    // hedge send: from the first send it would measure the delay itself, and
    // with a dead replica those samples would pin the p99 at the delay.
    const SimTime sent = from_hedge ? packet.hedged_at : packet.sent_at;
    read_rtt_ns_.Add(
        static_cast<uint64_t>((group_.simulator().Now() - sent) / kNanosecond));
  }
  if (from_hedge) {
    stats_.hedge_wins++;
  }
}

SimTime ReplicatedClient::HedgeDelay() const {
  // Adaptive: hedge past the tail of observed read RTTs — p99 once the
  // distribution has a little mass, half the retransmission timeout before
  // that (hedging at the timeout itself would duplicate the retry timer).
  SimTime delay = options_.timeout / 2;
  if (read_rtt_ns_.count() >= 16) {
    delay = read_rtt_ns_.Percentile(0.99) * kNanosecond;
  }
  return std::max(delay, kHedgeMinDelay);
}

}  // namespace kvd
