// Out-of-order execution engine (paper §3.3.3, Figure 13).
//
// KV operations on the same key are dependent: a GET after a PUT must return
// the new value, and single-key atomics form one long dependency chain. A
// naive pipeline stalls on every such hazard for a full PCIe round trip
// (~1 µs -> ~1 Mops single-key atomics). KV-Direct instead borrows dynamic
// scheduling from computer architecture:
//
//   - A reservation station of `station_slots` (1024) entries indexed by a
//     10-bit key hash tracks all in-flight operations (up to 256).
//   - Operations whose slot holds an in-flight operation are parked in the
//     slot's chain. Same-hash-different-key collisions are treated as
//     dependent (false positives are safe, missed dependencies are not);
//     chains are examined sequentially with full key digests.
//   - When the main pipeline completes, parked operations with a matching key
//     execute immediately against the cached value — the data-forwarding
//     "fast path", one operation per clock cycle — and the updated value is
//     eventually written back by a PUT issued to the main pipeline.
//
// This class is the bookkeeping core: it decides, per operation, whether the
// processor should issue to the main pipeline, park, fast-path, or reject.
// The KvProcessor owns all timing (clock cycles, memory traces).
//
// Slot lifecycle:   Idle -> Pipeline(digest) -> Cached(digest, dirty?)
//                    ^          |                     |
//                    +---- TryIssueNext <--- writeback drained
#ifndef SRC_OOO_RESERVATION_STATION_H_
#define SRC_OOO_RESERVATION_STATION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/assert.h"
#include "src/common/ring_queue.h"
#include "src/obs/metric_registry.h"

namespace kvd {

struct OooConfig {
  uint32_t station_slots = 1024;  // 10-bit key hash
  uint32_t max_inflight = 256;    // pipeline + parked operations
  // Ablation switch (Figure 13): false = stall-on-conflict strawman. Parked
  // operations then re-issue to the main pipeline one by one, paying the full
  // memory latency each, and no data forwarding happens.
  bool enable_out_of_order = true;
};

struct OooStats {
  uint64_t issued_to_pipeline = 0;
  uint64_t parked = 0;          // conflicted, queued behind the slot
  uint64_t fast_path_ops = 0;   // executed via data forwarding
  uint64_t rejected_full = 0;
  uint64_t writebacks = 0;
  uint32_t peak_inflight = 0;
};

class ReservationStation {
 public:
  enum class Action : uint8_t {
    kIssueToPipeline,  // no hazard: go to the main pipeline now
    kPark,             // hazard: wait in the slot's chain
    kFastPath,         // value cached in the station: retire in one cycle
    kRejectFull,       // station capacity (256) exhausted
  };

  explicit ReservationStation(const OooConfig& config);

  // Registers an operation on `slot` for a key with `key_digest`.
  // `is_write` marks operations that mutate the value (PUT / atomic).
  Action Admit(uint64_t op_id, uint16_t slot, uint64_t key_digest, bool is_write);

  // The main-pipeline operation for `slot` finished. Transitions the slot to
  // Cached and fills `fast_path` (cleared first) with the parked same-key
  // operations to retire via the fast path, in arrival order. (Empty when
  // out-of-order execution is disabled.)
  void CompletePipeline(uint16_t slot, std::vector<uint64_t>& fast_path);
  std::vector<uint64_t> CompletePipeline(uint16_t slot) {
    std::vector<uint64_t> fast_path;
    CompletePipeline(slot, fast_path);
    return fast_path;
  }

  // True if the slot's cached value is dirty and no write-back is in flight.
  bool NeedsWriteback(uint16_t slot) const;
  // Marks the write-back PUT as issued (clears dirty).
  void BeginWriteback(uint16_t slot);
  // The write-back PUT completed.
  void CompleteWriteback(uint16_t slot);

  // After the slot is quiescent (no write-back needed or in flight), pops the
  // next parked operation — a different key that was a false-positive
  // dependency — and re-arms the slot as Pipeline for it. Returns nullopt and
  // idles the slot when nothing is parked.
  std::optional<uint64_t> TryIssueNext(uint16_t slot);

  uint32_t inflight() const { return inflight_; }
  const OooStats& stats() const { return stats_; }
  const OooConfig& config() const { return config_; }

  // Counters backed by stats_; occupancy gauges. Timing-level station events
  // (admit/forward/retire) are emitted by the KvProcessor, which owns time.
  void RegisterMetrics(MetricRegistry& registry) const;

  // Test/introspection helpers.
  bool SlotIdle(uint16_t slot) const;
  size_t ParkedCount(uint16_t slot) const;

 private:
  // kPipelineShared: stall-mode only — concurrent same-slot *reads* proceed
  // in parallel (the paper's strawman stalls only when a PUT is involved).
  enum class SlotState : uint8_t { kIdle, kPipeline, kPipelineShared, kCached };

  struct Parked {
    uint64_t op_id = 0;
    uint64_t key_digest = 0;
    bool is_write = false;
  };

  struct Slot {
    SlotState state = SlotState::kIdle;
    uint64_t digest = 0;
    bool dirty = false;
    bool writeback_inflight = false;
    uint32_t shared_readers = 0;  // stall mode: reads in flight concurrently
    RingQueue<Parked> parked;
  };

  void NoteInflight(int delta);

  OooConfig config_;
  std::vector<Slot> slots_;
  uint32_t inflight_ = 0;
  OooStats stats_;
};

}  // namespace kvd

#endif  // SRC_OOO_RESERVATION_STATION_H_
