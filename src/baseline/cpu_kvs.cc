#include "src/baseline/cpu_kvs.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ctime>
#include <thread>

#include "src/common/assert.h"
#include "src/common/hashing.h"
#include "src/common/random.h"

namespace kvd {

CpuKvs::CpuKvs(size_t num_shards) : shards_(num_shards) {
  KVD_CHECK(num_shards > 0);
}

CpuKvs::Shard& CpuKvs::ShardFor(std::span<const uint8_t> key) const {
  return shards_[HashBytes(key.data(), key.size(), /*seed=*/0xc0de) % shards_.size()];
}

Status CpuKvs::Get(std::span<const uint8_t> key,
                   std::vector<uint8_t>& value_out) const {
  Shard& shard = ShardFor(key);
  const std::string key_str(key.begin(), key.end());
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(key_str);
  if (it == shard.map.end()) {
    return Status::NotFound();
  }
  value_out = it->second;
  return Status::Ok();
}

Status CpuKvs::Put(std::span<const uint8_t> key, std::span<const uint8_t> value) {
  if (key.empty()) {
    return Status::InvalidArgument("empty key");
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.map[std::string(key.begin(), key.end())] =
      std::vector<uint8_t>(value.begin(), value.end());
  return Status::Ok();
}

Status CpuKvs::Delete(std::span<const uint8_t> key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.map.erase(std::string(key.begin(), key.end())) > 0
             ? Status::Ok()
             : Status::NotFound();
}

Result<uint64_t> CpuKvs::FetchAdd(std::span<const uint8_t> key, uint64_t delta) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(std::string(key.begin(), key.end()));
  if (it == shard.map.end()) {
    return Status::NotFound();
  }
  if (it->second.size() != 8) {
    return Status::InvalidArgument("fetch-add on non-scalar value");
  }
  uint64_t current;
  std::memcpy(&current, it->second.data(), 8);
  const uint64_t updated = current + delta;
  std::memcpy(it->second.data(), &updated, 8);
  return current;
}

size_t CpuKvs::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.map.size();
  }
  return total;
}

namespace {

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

CpuKvsThroughput MeasureCpuKvsMops(unsigned num_threads, uint64_t num_keys,
                                   uint64_t total_ops) {
  KVD_CHECK(num_threads >= 1);
  CpuKvs store(64);
  std::vector<uint8_t> key(8);
  for (uint64_t id = 0; id < num_keys; id++) {
    std::memcpy(key.data(), &id, 8);
    KVD_CHECK(store.Put(key, key).ok());
  }
  const uint64_t per_thread = total_ops / num_threads;
  std::vector<int64_t> cpu_ns(num_threads);
  auto worker = [&](unsigned tid) {
    const int64_t cpu_start = ThreadCpuNs();
    Rng rng(1000 + tid);
    std::vector<uint8_t> thread_key(8);
    std::vector<uint8_t> out;
    for (uint64_t i = 0; i < per_thread; i++) {
      const uint64_t id = rng.NextBelow(num_keys);
      std::memcpy(thread_key.data(), &id, 8);
      (void)store.Get(thread_key, out);
    }
    cpu_ns[tid] = ThreadCpuNs() - cpu_start;
  };
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (unsigned t = 1; t < num_threads; t++) {
    threads.emplace_back(worker, t);
  }
  worker(0);
  for (auto& thread : threads) {
    thread.join();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  int64_t total_cpu_ns = 0;
  for (const int64_t ns : cpu_ns) {
    total_cpu_ns += ns;
  }
  const double ops = static_cast<double>(per_thread * num_threads);
  return {.wall_mops = ops / seconds / 1e6,
          .core_mops = ops / std::max<double>(total_cpu_ns, 1) * 1e3};
}

}  // namespace kvd
