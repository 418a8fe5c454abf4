// CPU-based key-value store baseline (paper §2.2, Figure 1a).
//
// The class of system KV-Direct displaces: a sharded in-memory hash map
// served by host cores. Keys hash to shards, each protected by its own
// mutex — the standard memcached-style architecture whose per-core limits
// (§2.2: ~5.5 Mops interleaved, ~7.9 Mops batched) motivate the NIC offload.
//
// This is a real, thread-safe store: tests run it concurrently, and
// MeasureCpuKvsMops gives a wall-clock datapoint for Table 3 alongside the
// paper-constant analytic model in analytic_models.h.
#ifndef SRC_BASELINE_CPU_KVS_H_
#define SRC_BASELINE_CPU_KVS_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"

namespace kvd {

class CpuKvs {
 public:
  explicit CpuKvs(size_t num_shards = 16);

  CpuKvs(const CpuKvs&) = delete;
  CpuKvs& operator=(const CpuKvs&) = delete;

  Status Get(std::span<const uint8_t> key, std::vector<uint8_t>& value_out) const;
  Status Put(std::span<const uint8_t> key, std::span<const uint8_t> value);
  Status Delete(std::span<const uint8_t> key);

  // Atomic fetch-and-add on an 8-byte value (the single-key atomic whose
  // throughput cannot scale beyond one core on CPU systems, §5.1.3).
  Result<uint64_t> FetchAdd(std::span<const uint8_t> key, uint64_t delta);

  size_t size() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::vector<uint8_t>> map;
  };

  Shard& ShardFor(std::span<const uint8_t> key) const;

  mutable std::vector<Shard> shards_;
};

// GET throughput of CpuKvs with `num_threads` worker threads over `num_keys`
// preloaded 8-byte values. A real measurement on this host, complementing the
// paper-constant model.
struct CpuKvsThroughput {
  double wall_mops = 0;  // ops per elapsed wall second, all workers together
  // Ops per second of the workers' summed thread-CPU time: the per-core rate,
  // which does not fall when other processes share the host.
  double core_mops = 0;
};
CpuKvsThroughput MeasureCpuKvsMops(unsigned num_threads, uint64_t num_keys,
                                   uint64_t total_ops);

}  // namespace kvd

#endif  // SRC_BASELINE_CPU_KVS_H_
