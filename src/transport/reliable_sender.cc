#include "src/transport/reliable_sender.h"

#include <algorithm>
#include <utility>

namespace kvd {
namespace {

// Retry-budget tokens a successful response refills.
constexpr double kRetryRefillPerSuccess = 0.1;

}  // namespace

SimTime ReliableSender::BackoffDelay(const PacketPtr& packet) {
  if (packet->attempts <= 1) {
    // The first attempt's timer is exactly the timeout.
    packet->backoff = policy_.timeout;
    return policy_.timeout;
  }
  // Decorrelated jitter: uniform[timeout, 3 * previous_wait), capped. Grows
  // at least as fast as exponential backoff in expectation but desynchronizes
  // retransmissions across packets and senders.
  const SimTime cap = policy_.timeout << policy_.backoff_shift_cap;
  const SimTime prev = std::min(packet->backoff, cap);
  const SimTime hi = prev > cap / 3 ? cap : prev * 3;
  SimTime delay = policy_.timeout;
  if (hi > policy_.timeout) {
    delay += jitter_rng_.NextBelow(hi - policy_.timeout);
  }
  delay = std::min(delay, cap);
  packet->backoff = delay;
  return delay;
}

void ReliableSender::Transmit(const PacketPtr& packet) {
  packet->attempts++;
  packet->attempts_at_target++;
  if (!packet->traces.empty() && tracer_.enabled()) {
    for (const uint64_t handle : packet->traces) {
      tracer_.CountAttempt(handle);
      if (packet->attempts > 1) {
        // Timeout-driven retransmission marker (detail: attempt number).
        tracer_.Span(handle, SpanKind::kRetransmit, sim_.Now(), sim_.Now(),
                     packet->attempts - 1);
      }
    }
  }
  wire_(packet);
  // Retransmission timer for this attempt, with decorrelated jitter. A timer
  // that fires after completion (or after a newer attempt took over) is a
  // no-op.
  const uint32_t seen = packet->attempts;
  const SimTime timeout = BackoffDelay(packet);
  sim_.Schedule(timeout, [this, packet, seen] {
    if (packet->completed || packet->attempts != seen) {
      return;  // answered, or a bounce already re-sent it
    }
    if (packet->deadline != 0 && sim_.Now() >= packet->deadline) {
      // Past the deadline nobody is waiting for this answer; retransmitting
      // would only feed the overload that delayed it.
      stats_->deadline_failures++;
      packet->fail_code = ResultCode::kDeadlineExceeded;
      Fail(packet);
      return;
    }
    if (packet->attempts >= policy_.max_attempts) {
      Fail(packet);
      return;
    }
    if (policy_.retry_budget > 0) {
      if (retry_tokens_ < 1.0) {
        // Budget empty: the server (or network) is failing everything, so
        // more retries are gasoline. Fail fast and let the caller decide.
        stats_->budget_exhausted++;
        Fail(packet);
        return;
      }
      retry_tokens_ -= 1.0;
    }
    stats_->retransmits++;
    if (policy_.attempts_per_target > 0 &&
        packet->attempts_at_target >= policy_.attempts_per_target) {
      Retarget(packet, packet->target + 1);  // this replica may be crashed
    }
    Transmit(packet);
  });
}

void ReliableSender::Resend(const PacketPtr& packet) {
  if (packet->deadline != 0 && sim_.Now() >= packet->deadline) {
    stats_->deadline_failures++;
    packet->fail_code = ResultCode::kDeadlineExceeded;
    Fail(packet);
    return;
  }
  if (packet->attempts >= policy_.max_attempts) {
    Fail(packet);
    return;
  }
  Transmit(packet);
}

void ReliableSender::Fail(const PacketPtr& packet) {
  packet->failed = true;
  packet->completed = true;  // late responses dedup instead of double-filling
  on_fail_(packet);
}

std::optional<std::span<const uint8_t>> ReliableSender::AcceptResponse(
    const PacketPtr& packet, std::span<const uint8_t> response) {
  if (packet->completed) {
    stats_->duplicate_responses++;  // injected duplicate or late retransmit
    return std::nullopt;
  }
  Result<Frame> frame = ParseFrame(response);
  if (!frame.ok() || frame->sequence != packet->sequence) {
    // Bit-flipped in flight (or a foreign frame): await the timer.
    stats_->corrupt_responses++;
    return std::nullopt;
  }
  if (policy_.retry_budget > 0) {
    // Successes refill the retry budget, so a healthy system keeps its full
    // allowance and a failing one converges to the refill rate.
    retry_tokens_ = std::min(static_cast<double>(policy_.retry_budget),
                             retry_tokens_ + kRetryRefillPerSuccess);
  }
  return frame->payload;
}

}  // namespace kvd
