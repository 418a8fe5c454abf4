// What both drivers share: the workload generator's settings and the
// response check against a per-key shadow; and window accounting: counter
// snapshots of every server in a topology, and the per-layer and roofline
// metrics computed from two of them.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/common/stats.h"
#include "src/core/kv_direct.h"
#include "src/workload/ycsb.h"

namespace kvd::perf {

// YCSB generator settings of a workload.
WorkloadConfig MakeWorkload(const WorkloadSpec& spec, uint64_t seed);

// The last value issued for every key. Every value the workload writes is
// one byte repeated, so a key's value is known by that fill byte.
class Shadow {
 public:
  // What a result must show: a GET's expected fill byte, or kPut.
  static constexpr int kPut = -1;

  explicit Shadow(const WorkloadConfig& config)
      : value_bytes_(config.value_bytes), fill_(config.num_keys) {}

  // Records an issued op (a write updates the shadow); returns the key id
  // and what the op's result must show.
  std::pair<uint64_t, int> Issue(const KvOperation& op);
  uint8_t fill(uint64_t id) const { return fill_[id]; }

  // Checks a result against what Issue() returned. Every key is preloaded,
  // so anything but kOk is a failed op, and a GET must return the shadow's
  // value. Counts and describes a failure in `rep`; returns true on a pass.
  bool Check(uint64_t id, int expect, const KvResultMessage& result,
             const std::string& what, RepResult& rep) const;

 private:
  uint32_t value_bytes_;
  std::vector<uint8_t> fill_;
};

// Public counters of one KvDirectServer, read at one instant.
struct ServerCounters {
  // core (KvProcessor) and ooo (ReservationStation)
  uint64_t retired = 0;
  uint64_t fast_path_ops = 0;
  uint64_t busy_rejected = 0;
  uint64_t parked = 0;
  // hash + mem
  uint64_t chain_follows = 0;
  uint64_t mem_accesses = 0;
  // alloc
  uint64_t allocations = 0;
  uint64_t frees = 0;
  uint64_t sync_dmas = 0;
  // dram (LoadDispatcher + NicDram)
  uint64_t pcie_accesses = 0;
  uint64_t dram_hits = 0;
  uint64_t dram_misses = 0;
  uint64_t dram_writebacks = 0;
  uint64_t dram_bytes = 0;
  // pcie (DmaEngine + PcieLinks)
  uint64_t tag_acquires = 0;
  uint64_t tag_waits = 0;
  uint64_t tlps = 0;
  std::vector<uint64_t> link_bytes;  // [2 * link + direction]
  std::vector<LatencyHistogram> link_read_latency_ns;
  // net (NetworkModel), per direction
  std::array<uint64_t, 2> net_packets{};
  std::array<uint64_t, 2> net_bytes{};
};

struct Snapshot {
  SimTime now = 0;
  uint64_t events = 0;
  std::vector<ServerCounters> servers;
};

Snapshot TakeSnapshot(Simulator& sim, const std::vector<KvDirectServer*>& servers);

// Appends sim.events_per_op and the net/core/ooo/hash/mem/alloc/dram/pcie
// metrics over the window [a, b] of `ops` retired client operations, plus
// the roofline (bound.max_util and the busiest resource).
void AddLayerMetrics(const Snapshot& a, const Snapshot& b, uint64_t ops,
                     const std::vector<KvDirectServer*>& servers,
                     RepResult& rep);

// NIC-DRAM cache hit rate over [a, b], all servers together.
double DramHitRate(const Snapshot& a, const Snapshot& b);

// Appends sim_p50_us / sim_p99_us over per-request latencies (picoseconds).
void AddLatencyMetrics(std::vector<SimTime> samples_ps, RepResult& rep);

// Quantile `q` of the window part of a histogram: `end` minus `start`.
uint64_t WindowPercentile(const std::vector<const LatencyHistogram*>& start,
                          const std::vector<const LatencyHistogram*>& end,
                          double q);

}  // namespace kvd::perf

#endif  // PERFBENCH_REPORT_H_
