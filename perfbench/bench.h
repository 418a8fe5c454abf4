// Shared types of the performance benchmark (see perfbench/README.md).
//
// A workload run ("rep") builds its topology from scratch, warms it up,
// drives one measured window of simulated operations and checks every
// response. The simulated side of a rep is a pure function of the workload
// and the seed; the host side (how long the simulator took) is what varies.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace kvd::perf {

// Host clocks, in nanoseconds.
int64_t WallNs();
int64_t ThreadCpuNs();

// Host-speed calibration. Other tenants of a shared host slow the simulator
// by up to 1.8x for seconds to minutes at a time, which no choice of run
// length or statistic averages away. So the benchmark interleaves a fixed
// reference kernel (calibrate.cc) with the work it measures, every few
// milliseconds, and divides each host time by the slowdown the kernel saw
// over the same stretch (set-up time by a measured power of it, see
// kSetupLoadSensitivity in main.cc): host times read as on a machine where
// the kernel takes kReferenceNs of thread CPU time.
inline constexpr double kReferenceNs = 350000;
// The kernel's table, resident from the first run to the end of the
// process; peak_rss_mib leaves it out.
inline constexpr size_t kCalibrationTableBytes = size_t{8} << 20;

class Calibration {
 public:
  // Runs the reference kernel once.
  void Run();
  // Mean kernel time over kReferenceNs; 1 when no run was made.
  double slowdown() const;
  // Thread CPU time spent in Run(), to subtract from the measured work.
  int64_t overhead_ns() const { return overhead_ns_; }

 private:
  double reference_ns_ = 0;
  uint64_t runs_ = 0;
  int64_t overhead_ns_ = 0;
};

// Layers the traced run attributes host time to. Each is a span the
// benchmark's own code opens around its calls into one public function of
// the library (or, for kDrive and kCheck, around its own work).
enum class Layer : int {
  kDrive,       // root: the measured drive loop itself
  kStep,        // Simulator::Step
  kNextOp,      // YcsbWorkload::NextOp
  kEncode,      // PacketBuilder::Add / Finish
  kDeliver,     // KvDirectServer::DeliverPacket
  kCheck,       // response decode and shadow check (benchmark work)
  kFlush,       // ClusterClient::BeginFlush .. TakeResults
  kCalibrate,   // the reference kernel (benchmark work)
  kCount,
};
const char* LayerName(Layer layer);

// Nested host-time spans. A span's self time is its duration minus the time
// covered by spans opened inside it, so the self times of all layers add up
// to the root span exactly. Disabled instances cost one branch per span.
class Spans {
 public:
  struct Totals {
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    uint64_t calls = 0;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void Begin(Layer layer) {
    if (enabled_) {
      stack_.push_back(Frame{layer, WallNs(), 0});
    }
  }
  void End() {
    if (enabled_) {
      Close();
    }
  }
  const Totals& totals(Layer layer) const {
    return totals_[static_cast<int>(layer)];
  }
  void Reset() { totals_ = {}; }

 private:
  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
  };
  void Close();

  bool enabled_;
  std::vector<Frame> stack_;
  std::array<Totals, static_cast<int>(Layer::kCount)> totals_{};
};

class Span {
 public:
  Span(Spans& spans, Layer layer) : spans_(spans) { spans_.Begin(layer); }
  ~Span() { spans_.End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans& spans_;
};

struct Metric {
  std::string name;
  double value = 0;
};

// Everything one rep produced.
struct RepResult {
  // Host thread CPU time of set-up and of the measured drive, calibration
  // excluded, and the slowdown the reference kernel saw meanwhile.
  double setup_cpu_s = 0;
  double setup_slowdown = 1;
  double drive_cpu_ns = 0;
  double drive_slowdown = 1;
  uint64_t window_ops = 0;
  uint64_t window_events = 0;

  // Correctness. `failed` counts ops whose result is neither kOk nor an
  // expected kNotFound; `mismatches` counts wrong values and read-back
  // misses. `errors` keeps the first few descriptions.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t readback_checked = 0;
  std::vector<std::string> errors;

  // Simulated results, in a fixed order; all of them feed sim_digest.
  std::vector<Metric> sim;
  std::vector<uint64_t> raw_counters;  // window counter deltas, digest only
  uint64_t latency_samples = 0;
  std::string busiest_resource;
  std::string tag_limited_verdict;  // single-server workloads only

  // Traced reps only.
  std::array<Spans::Totals, static_cast<int>(Layer::kCount)> spans{};
  double preload_ns_per_key = 0;
  double functional_ns_per_op = 0;  // 0 where no twin replay runs
  double flush_growth = 0;          // cluster only

  void AddSim(std::string name, double value) {
    sim.push_back(Metric{std::move(name), value});
  }
  void Fail(const std::string& error) {
    if (errors.size() < 8) {
      errors.push_back(error);
    }
  }
};

// FNV-1a over every simulated metric (17 significant digits) and raw
// counter: equal digests mean the simulated behaviour was bit-identical.
uint64_t SimDigest(const RepResult& rep);

// Median; the mean of the two middle values for an even count.
double Median(std::vector<double> values);

// What one rep does: only the set-up, or set-up and drive with tracing
// off or on.
enum class RepMode { kSetupOnly, kUntraced, kTraced };

struct WorkloadSpec;
using RepFn = RepResult (*)(const WorkloadSpec& spec, uint64_t seed, RepMode mode);

struct WorkloadSpec {
  const char* name;
  RepFn run;
  uint64_t num_keys = 0;  // all preloaded, so no GET may miss
  uint32_t kv_bytes = 0;
  double get_ratio = 0;
  bool long_tail = false;
  // Single-server workloads.
  uint64_t warmup_ops = 0;
  uint64_t measured_ops = 0;
  // Cluster workloads: closed batches of 64 ops, each followed by
  // `think_time` of client idling. A zero migration timing keeps the
  // ClusterConfig default.
  uint64_t warmup_batches = 0;
  uint64_t measured_batches = 0;
  SimTime think_time = 0;
  SimTime migration_poll_interval = 0;
  SimTime cutover_quiesce = 0;
  // A correctness scenario rather than a benchmark workload: one rep, only
  // its checks count.
  bool check_only = false;
};

RepResult RunServerRep(const WorkloadSpec& spec, uint64_t seed, RepMode mode);
RepResult RunClusterRep(const WorkloadSpec& spec, uint64_t seed, RepMode mode);

}  // namespace kvd::perf

#endif  // PERFBENCH_BENCH_H_
