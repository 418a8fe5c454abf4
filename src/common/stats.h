// Statistics accumulators used by the hardware models and the benchmark
// harness: running mean/min/max, and an HDR-style histogram for latency
// percentiles (the paper reports 5th/95th/99th percentiles and tail latency).
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kvd {

// Running scalar statistics (Welford's algorithm for variance).
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);
  void Reset();

  uint64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0; }
  double min() const { return count_ > 0 ? min_ : 0; }
  double max() const { return count_ > 0 ? max_ : 0; }
  double variance() const;
  double stddev() const;
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  uint64_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Log-linear histogram: values bucketed with ~1.5% relative error, constant
// memory, O(1) insert. Suitable for latency distributions spanning ns..ms.
// The 16 KiB of buckets are allocated by the first Add or Merge, so a
// histogram that never records a value costs only its header.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Add(uint64_t value);
  void Merge(const LatencyHistogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  double mean() const;
  uint64_t min() const { return count_ > 0 ? min_ : 0; }
  uint64_t max() const { return count_ > 0 ? max_ : 0; }

  // quantile in [0, 1]; returns an upper bound of the bucket containing it.
  uint64_t Percentile(double quantile) const;

  // Cumulative distribution sampled at each non-empty bucket: (value, cdf).
  std::vector<std::pair<uint64_t, double>> Cdf() const;

  std::string Summary() const;

 private:
  static constexpr int kSubBucketBits = 5;  // 32 sub-buckets per power of two
  static constexpr int kNumBuckets = 64 << kSubBucketBits;

  static int BucketFor(uint64_t value);
  static uint64_t BucketUpperBound(int bucket);

  std::vector<uint64_t> buckets_;  // empty until the first Add or Merge
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

}  // namespace kvd

#endif  // SRC_COMMON_STATS_H_
