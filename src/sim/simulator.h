// Discrete-event simulation core.
//
// All hardware models (PCIe link, NIC DRAM, network, KV-processor clock) are
// driven by one Simulator instance. Events execute in (time, sequence) order;
// the sequence tiebreak makes same-timestamp behaviour deterministic, which
// keeps every benchmark bit-reproducible across runs.
//
// Event core (DESIGN.md §3): each pending event's callable sits in a slot
// pool recycled through a free list, and a 4-ary min-heap orders compact
// {when, sequence, slot} keys. Callables are InlineCallbacks, so an event
// whose capture fits 64 B costs no heap allocation once the pool is warm.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/sim/inline_callback.h"

namespace kvd {

class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` picoseconds from now.
  void Schedule(SimTime delay, Callback fn) { ScheduleAt(now_ + delay, std::move(fn)); }

  // Schedules `fn` at absolute time `when` (must not be in the past).
  void ScheduleAt(SimTime when, Callback fn);

  // Runs the earliest pending event. Returns false when the queue is empty.
  bool Step();

  // Runs events until none remain at or before `deadline`; advances the clock
  // to `deadline` even if the queue drains earlier.
  void RunUntil(SimTime deadline);

  // Runs until the event queue is empty.
  void RunUntilIdle();

  size_t pending_events() const { return heap_.size(); }
  uint64_t executed_events() const { return executed_; }

 private:
  struct Key {
    SimTime when;
    uint64_t sequence;
    uint32_t slot;  // index into slots_
  };
  static bool Earlier(const Key& a, const Key& b) {
    return a.when != b.when ? a.when < b.when : a.sequence < b.sequence;
  }
  void SiftUp(size_t i);
  void SiftDown(size_t i);

  SimTime now_ = 0;
  uint64_t next_sequence_ = 0;
  uint64_t executed_ = 0;
  std::vector<Key> heap_;            // 4-ary min-heap on (when, sequence)
  std::vector<Callback> slots_;      // pending callables, by slot
  std::vector<uint32_t> free_slots_;
};

}  // namespace kvd

#endif  // SRC_SIM_SIMULATOR_H_
