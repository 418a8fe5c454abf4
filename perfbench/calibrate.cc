// The reference kernel that host times are normalized by (bench.h,
// Calibration). It does a fixed amount of the kind of work the simulator
// does on a host: pops and pushes a binary heap of timestamped
// std::function events, allocates and hashes a small buffer per event,
// inserts into and erases from a hash map, and reads and writes a table
// larger than the per-core caches. It must never change: every host time the
// benchmark reports is scaled by its cost.
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "perfbench/bench.h"

namespace kvd::perf {
namespace {

constexpr int kIterations = 1500;
constexpr size_t kTableEntries = kCalibrationTableBytes / sizeof(uint64_t);

struct Event {
  uint64_t when;
  uint64_t sequence;
  std::function<void()> fn;
};

struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.when != b.when ? a.when > b.when : a.sequence > b.sequence;
  }
};

int64_t RunKernel() {
  static std::vector<uint64_t> table(kTableEntries, 1);
  const int64_t start = ThreadCpuNs();
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::unordered_map<uint64_t, uint64_t> inflight;
  uint64_t sequence = 0;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t acc = 0;
  for (uint64_t i = 0; i < 64; i++) {
    queue.push(Event{i, sequence++, nullptr});
  }
  for (int i = 0; i < kIterations; i++) {
    const Event event = queue.top();
    queue.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[x & (kTableEntries - 1)];
    table[(x >> 20) & (kTableEntries - 1)] = acc;
    inflight[x & 4095] = acc;
    inflight.erase((x >> 12) & 4095);
    std::vector<uint8_t> payload(40, static_cast<uint8_t>(x));
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const uint8_t b : payload) {
      hash = (hash ^ b) * 0x100000001b3ULL;
    }
    queue.push(Event{event.when + (hash & 255), sequence++,
                     [p = std::move(payload)] { (void)p; }});
  }
  volatile uint64_t sink = acc + inflight.size();
  (void)sink;
  return ThreadCpuNs() - start;
}

}  // namespace

void Calibration::Run() {
  const int64_t start = ThreadCpuNs();
  reference_ns_ += static_cast<double>(RunKernel());
  runs_++;
  overhead_ns_ += ThreadCpuNs() - start;
}

double Calibration::slowdown() const {
  return runs_ > 0 ? reference_ns_ / static_cast<double>(runs_) / kReferenceNs : 1.0;
}

}  // namespace kvd::perf
