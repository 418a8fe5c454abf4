#include "src/sim/simulator.h"

#include <utility>

#include "src/common/assert.h"

namespace kvd {
namespace {

constexpr size_t kArity = 4;

}  // namespace

void Simulator::ScheduleAt(SimTime when, Callback fn) {
  KVD_CHECK_MSG(when >= now_, "event scheduled in the past");
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  }
  heap_.push_back(Key{when, next_sequence_++, slot});
  SiftUp(heap_.size() - 1);
}

void Simulator::SiftUp(size_t i) {
  const Key key = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Earlier(key, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void Simulator::SiftDown(size_t i) {
  const size_t n = heap_.size();
  const Key key = heap_[i];
  while (true) {
    const size_t first = i * kArity + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    const size_t last = first + kArity < n ? first + kArity : n;
    for (size_t c = first + 1; c < last; c++) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Earlier(heap_[best], key)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = key;
}

bool Simulator::Step() {
  if (heap_.empty()) {
    return false;
  }
  const Key top = heap_[0];
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0);
  }
  now_ = top.when;
  executed_++;
  // Move the callable out before running it: it may schedule events, which
  // can grow slots_ or recycle this very slot.
  Callback fn = std::move(slots_[top.slot]);
  free_slots_.push_back(top.slot);
  fn();
  return true;
}

void Simulator::RunUntil(SimTime deadline) {
  while (!heap_.empty() && heap_[0].when <= deadline) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void Simulator::RunUntilIdle() {
  while (Step()) {
  }
}

}  // namespace kvd
