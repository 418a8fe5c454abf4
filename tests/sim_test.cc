// Unit tests for the discrete-event simulator and token pools.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "src/common/hashing.h"
#include "src/sim/inline_callback.h"
#include "src/sim/simulator.h"
#include "src/sim/token_pool.h"

namespace kvd {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(SimulatorTest, SameTimestampRunsInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    sim.Schedule(100, [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    fired++;
    if (fired < 5) {
      sim.Schedule(10, chain);
    }
  };
  sim.Schedule(10, chain);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.Now(), 50u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { fired++; });
  sim.Schedule(100, [&] { fired++; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50u);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.RunUntil(1234);
  EXPECT_EQ(sim.Now(), 1234u);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
}

// --- event core: exact (time, sequence) order against a reference model ---

// One seeded event schedule, run twice: on the Simulator and on a reference
// std::priority_queue of (time, sequence, id). Roots arrive in same-timestamp
// bursts; each event schedules 0-2 children (some at delay 0) from inside its
// callback, all decided by a hash of the event id so both runs agree.
struct ScheduleSpec {
  static constexpr uint32_t kTotalEvents = 10000;
  static constexpr uint32_t kRoots = 1000;

  static SimTime RootTime(uint32_t id) {
    return (Mix64(id) % 64) * 100;  // 64 distinct instants: bursts of ~16
  }
  static uint32_t Children(uint32_t id) { return Mix64(id ^ 0xc0ffee) % 3; }
  static SimTime ChildDelay(uint32_t id, uint32_t k) {
    return (Mix64(id * 3 + k) % 4) * 50;  // 0, 50, 100 or 150 ps
  }
};

struct Executed {
  SimTime when;
  uint32_t id;
  bool operator==(const Executed&) const = default;
};

std::vector<Executed> RunOnSimulator() {
  Simulator sim;
  std::vector<Executed> order;
  uint32_t next_id = 0;
  std::function<void(uint32_t)> run = [&](uint32_t id) {
    order.push_back({sim.Now(), id});
    for (uint32_t k = 0; k < ScheduleSpec::Children(id); k++) {
      if (next_id == ScheduleSpec::kTotalEvents) {
        return;
      }
      const uint32_t child = next_id++;
      sim.Schedule(ScheduleSpec::ChildDelay(id, k), [&run, child] { run(child); });
    }
  };
  while (next_id < ScheduleSpec::kRoots) {
    const uint32_t root = next_id++;
    sim.ScheduleAt(ScheduleSpec::RootTime(root), [&run, root] { run(root); });
  }
  sim.RunUntilIdle();
  return order;
}

std::vector<Executed> RunOnReferenceQueue() {
  using Entry = std::tuple<SimTime, uint64_t, uint32_t>;  // when, sequence, id
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  uint64_t sequence = 0;
  uint32_t next_id = 0;
  while (next_id < ScheduleSpec::kRoots) {
    const uint32_t root = next_id++;
    queue.emplace(ScheduleSpec::RootTime(root), sequence++, root);
  }
  std::vector<Executed> order;
  while (!queue.empty()) {
    const auto [now, seq, id] = queue.top();
    queue.pop();
    order.push_back({now, id});
    for (uint32_t k = 0; k < ScheduleSpec::Children(id); k++) {
      if (next_id == ScheduleSpec::kTotalEvents) {
        break;
      }
      queue.emplace(now + ScheduleSpec::ChildDelay(id, k), sequence++, next_id++);
    }
  }
  return order;
}

TEST(SimulatorTest, MatchesReferencePriorityQueueOrder) {
  const std::vector<Executed> expected = RunOnReferenceQueue();
  ASSERT_EQ(expected.size(), ScheduleSpec::kTotalEvents);
  EXPECT_EQ(RunOnSimulator(), expected);
}

TEST(SimulatorTest, LargeCaptureRunsThroughHeapFallback) {
  Simulator sim;
  std::array<uint64_t, 16> big;
  for (size_t i = 0; i < big.size(); i++) {
    big[i] = i + 1;
  }
  uint64_t sum = 0;
  auto fn = [big, &sum] {
    for (const uint64_t v : big) {
      sum += v;
    }
  };
  static_assert(sizeof(fn) > InlineCallback::kInlineBytes);
  sim.Schedule(10, std::move(fn));
  sim.RunUntilIdle();
  EXPECT_EQ(sum, 136u);
}

TEST(SimulatorTest, MoveOnlyCapturesWork) {
  Simulator sim;
  int seen = 0;
  sim.Schedule(5, [owned = std::make_unique<int>(42), &seen] { seen = *owned; });
  // Moving a pending callable between InlineCallbacks keeps the capture.
  InlineCallback a = [owned = std::make_unique<int>(7), &seen] { seen += *owned; };
  InlineCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  sim.Schedule(6, std::move(b));
  sim.RunUntilIdle();
  EXPECT_EQ(seen, 49);
}

TEST(SimulatorTest, InvokingEmptyCallbackFailsCheck) {
  InlineCallback empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  EXPECT_DEATH(empty(), "empty InlineCallback");
}

TEST(SimulatorTest, PendingCapturesDestroyedWithSimulator) {
  auto token = std::make_shared<int>(0);
  {
    Simulator sim;
    sim.Schedule(10, [token] {});
    std::array<uint64_t, 16> padding{};
    sim.Schedule(20, [token, padding] { (void)padding; });  // heap fallback
    sim.Schedule(30, [token] {});
    sim.RunUntil(15);  // one ran and was destroyed; two stay pending
    EXPECT_EQ(sim.pending_events(), 2u);
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(TokenPoolTest, ImmediateGrantWhenAvailable) {
  TokenPool pool("test", 4);
  bool granted = false;
  pool.Acquire(2, [&] { granted = true; });
  EXPECT_TRUE(granted);
  EXPECT_EQ(pool.available(), 2u);
}

TEST(TokenPoolTest, WaitersGrantedFifoOnRelease) {
  TokenPool pool("test", 2);
  pool.Acquire(2, [] {});
  std::vector<int> order;
  pool.Acquire(1, [&] { order.push_back(1); });
  pool.Acquire(1, [&] { order.push_back(2); });
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(pool.waiters(), 2u);
  pool.Release(2);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TokenPoolTest, FifoFairnessEvenWhenTokensFree) {
  TokenPool pool("test", 4);
  pool.Acquire(4, [] {});
  bool big_granted = false;
  bool small_granted = false;
  pool.Acquire(3, [&] { big_granted = true; });
  pool.Release(2);
  // Two tokens are free but the 3-token waiter is at the head; a later
  // 1-token request must not jump the queue.
  pool.Acquire(1, [&] { small_granted = true; });
  EXPECT_FALSE(big_granted);
  EXPECT_FALSE(small_granted);
  pool.Release(1);  // 3 free: head (3-token) waiter granted, 0 left
  EXPECT_TRUE(big_granted);
  EXPECT_FALSE(small_granted);
  pool.Release(1);  // now the small waiter gets its token
  EXPECT_TRUE(small_granted);
}

TEST(TokenPoolTest, TryAcquire) {
  TokenPool pool("test", 2);
  EXPECT_TRUE(pool.TryAcquire(2));
  EXPECT_FALSE(pool.TryAcquire(1));
  pool.Release(2);
  EXPECT_TRUE(pool.TryAcquire(1));
}

TEST(TokenPoolTest, TracksPeakUsage) {
  TokenPool pool("test", 8);
  pool.Acquire(5, [] {});
  pool.Release(3);
  pool.Acquire(1, [] {});
  EXPECT_EQ(pool.peak_in_use(), 5u);
  EXPECT_EQ(pool.total_acquires(), 2u);
}

}  // namespace
}  // namespace kvd
