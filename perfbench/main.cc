// kvd_perfbench: the repo's performance benchmark (see perfbench/README.md).
//
//   kvd_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   kvd_perfbench --list
//
// Runs one workload for about `seconds` of wall time as a series of reps,
// each building its topology from scratch. Simulated metrics come from the
// first rep and must repeat bit-identically in every later rep; host metrics
// are medians over the reps. `--trace 0` prints the end-to-end metrics,
// `--trace 1` the per-layer ones (traced reps alternate with untraced reps
// so the tracing overhead is measured in the same run). A correctness
// scenario runs a single rep and only its checks count. The last line of
// stdout is one JSON object; the exit code is nonzero if any check failed.
// `--list` prints every workload and scenario name, one a line.
#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace kvd::perf {
namespace {

// Why each workload exists is recorded in perfbench/README.md.
const WorkloadSpec kWorkloads[] = {
    {.name = "tiny-longtail-read",
     .run = RunServerRep,
     // The 32 MiB store holds 849k such KVs (~35% of it): fill it to there.
     .num_keys = 840000,
     .kv_bytes = 13,
     .get_ratio = 0.95,
     .long_tail = true,
     .warmup_ops = 400000,
     .measured_ops = 800000},
    {.name = "mid-uniform-rw",
     .run = RunServerRep,
     .num_keys = 32 * 1024 * 1024 * 35 / 100 / 60,  // 35% of the store
     .kv_bytes = 60,
     .get_ratio = 0.5,
     .long_tail = false,
     .warmup_ops = 300000,
     .measured_ops = 400000},
    {.name = "cluster-migrate-rw",
     .run = RunClusterRep,
     // Few enough keys that the client's per-key watermarks (scanned on
     // every packet) saturate during the warm-up, so every slice of the
     // window costs the same.
     .num_keys = 2048,
     .kv_bytes = 60,
     .get_ratio = 0.5,
     .warmup_batches = 200,
     .measured_batches = 1200,
     // A migration leaves catch-up only after a poll interval with no
     // forward, and a client that never pauses never gives it one; the
     // think time does. Poll and cutover quiesce are sized to the
     // pipeline's few-microsecond residence time (as in bench_rebalance).
     // These settings were chosen after a client without think time failed
     // this workload's checks, so it does not reach the overlap of a stuck
     // migration with the backup's restart; cluster-overlap-check does.
     .think_time = 20 * kMicrosecond,
     .migration_poll_interval = 10 * kMicrosecond,
     .cutover_quiesce = 25 * kMicrosecond},
    // The same scripted events under a closed-loop client without think
    // time and with the default migration timing, so the migration is still
    // in catch-up when the backup crashes and restarts. Not a benchmark
    // workload: it fails for as long as the library neither completes that
    // migration nor keeps every acknowledged write on the restarted backup
    // (perfbench/README.md, "Known defects").
    {.name = "cluster-overlap-check",
     .run = RunClusterRep,
     .num_keys = 4096,
     .kv_bytes = 60,
     .get_ratio = 0.5,
     .warmup_batches = 100,
     .measured_batches = 1200,
     .check_only = true},
};

constexpr size_t kMinReps = 3;
constexpr size_t kMinTracedPairs = 2;
constexpr size_t kMinSetups = 7;
constexpr double kMinSetupWallS = 2;
constexpr size_t kMaxSetups = 200;
// Stop starting reps once another one could push the run past this.
constexpr double kHardLimitS = 150;

struct Catalog {
  const char* name;
  const char* unit;
};

const Catalog kEndToEnd[] = {
    {"sim_mops", "Mops"},         {"sim_p50_us", "us"},   {"sim_p99_us", "us"},
    {"host_ns_per_op", "ns"},     {"setup_s", "s"},       {"peak_rss_mib", "MiB"},
};

const Catalog kPerLayer[] = {
    {"sim.events_per_op", "events/op"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.step_self_ns_per_op", "ns"},
    {"workload.next_op_ns", "ns"},
    {"net.encode_ns_per_op", "ns"},
    {"net.bytes_per_op", "B/op"},
    {"net.wire_util", "ratio"},
    {"core.deliver_ns_per_op", "ns"},
    {"core.issue_util", "ratio"},
    {"core.busy_rejected", "count"},
    {"ooo.fast_path_share", "ratio"},
    {"ooo.parked_per_op", "1/op"},
    {"hash.preload_ns_per_key", "ns"},
    {"hash.functional_ns_per_op", "ns"},
    {"hash.chain_follows_per_op", "1/op"},
    {"mem.accesses_per_op", "1/op"},
    {"alloc.allocs_per_op", "1/op"},
    {"alloc.sync_dma_per_alloc", "ratio"},
    {"dram.hit_rate", "ratio"},
    {"dram.warmup_hit_rate", "ratio"},
    {"dram.pcie_share", "ratio"},
    {"dram.writebacks_per_op", "1/op"},
    {"dram.channel_util", "ratio"},
    {"pcie.tlps_per_op", "1/op"},
    {"pcie.tag_waits_per_read", "ratio"},
    {"pcie.tag_occupancy", "ratio"},
    {"pcie.link_util", "ratio"},
    {"pcie.read_p99_ns", "ns"},
    {"transport.packets_per_op", "1/op"},
    {"transport.retransmits_per_packet", "ratio"},
    {"transport.replayed_responses", "count"},
    {"replica.entries_shipped_per_write", "ratio"},
    {"replica.commit_wait_p99_us", "us"},
    {"replica.state_transfer_kvs", "count"},
    {"cluster.client_flush_ns_per_op", "ns"},
    {"cluster.client_flush_growth", "ratio"},
    {"cluster.migration_sim_us", "us"},
    {"cluster.copy_kvs", "count"},
    {"cluster.bounces_per_op", "1/op"},
    {"obs.trace_overhead_pct", "%"},
    {"bound.max_util", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      continue;
    }
    if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strtol(value, &end, 10) != 0;
    } else {
      return false;
    }
    if (end == value || *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

// Peak resident memory of the process less the calibration table, which is
// resident from before the first rep to the end.
double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0 -  // ru_maxrss is KiB
         static_cast<double>(kCalibrationTableBytes) / static_cast<double>(kMiB);
}

// How set-up time responds to host load, relative to the reference kernel:
// set-up time grows as the kernel's slowdown to this power. Measured, not
// derived: over 77 tiny-longtail-read set-ups in three stretches of
// different host load, the log-log slope of raw set-up time against the
// slowdown was 0.53 (0.46-0.59 per stretch). Set-up is a preload of random
// inserts and responds to co-tenants less than the kernel and the drive do,
// which follow the slowdown in full (perfbench/README.md).
constexpr double kSetupLoadSensitivity = 0.5;

// Calibrated set-up time (bench.h, Calibration).
double SetupScale(const RepResult& rep) {
  return std::pow(rep.setup_slowdown, kSetupLoadSensitivity);
}
double SetupS(const RepResult& rep) { return rep.setup_cpu_s / SetupScale(rep); }

// Calibrated span time per simulated op.
double PerOp(const RepResult& rep, Layer layer, bool self) {
  const Spans::Totals& t = rep.spans[static_cast<int>(layer)];
  return static_cast<double>(self ? t.self_ns : t.total_ns) / rep.drive_slowdown /
         static_cast<double>(rep.window_ops);
}

// Calibrated host time of the measured drive per simulated op (bench.h,
// Calibration).
double HostNsPerOp(const RepResult& rep) {
  return rep.drive_cpu_ns / rep.drive_slowdown / static_cast<double>(rep.window_ops);
}

template <typename Fn>
double MedianOver(const std::vector<RepResult>& reps, Fn fn) {
  std::vector<double> values;
  for (const RepResult& rep : reps) {
    values.push_back(fn(rep));
  }
  return Median(values);
}

// Runs one workload; prints its report and the JSON line. Returns true when
// every check passed.
bool RunWorkload(const WorkloadSpec& spec, const Args& args) {
  const int64_t start = WallNs();
  std::vector<RepResult> plain;
  std::vector<RepResult> traced;
  double peak_rss_mib = 0;
  double longest_rep_s = 0;
  for (;;) {
    const double elapsed = static_cast<double>(WallNs() - start) * 1e-9;
    const bool enough = args.trace ? traced.size() >= kMinTracedPairs
                                   : plain.size() >= kMinReps;
    if ((enough && elapsed >= args.seconds) ||
        (!plain.empty() && (spec.check_only || elapsed + longest_rep_s > kHardLimitS))) {
      break;
    }
    const int64_t rep_start = WallNs();
    plain.push_back(spec.run(spec, args.seed, RepMode::kUntraced));
    if (plain.size() == 1) {
      peak_rss_mib = PeakRssMiB();
    }
    if (args.trace) {
      traced.push_back(spec.run(spec, args.seed, RepMode::kTraced));
    }
    longest_rep_s = std::max(longest_rep_s,
                             static_cast<double>(WallNs() - rep_start) * 1e-9);
  }

  // Set-up time is a median over at least kMinSetups set-ups and
  // kMinSetupWallS of extra set-up work: the first set-ups in a process run
  // slower (fresh pages), and a short set-up sees few calibration runs, so
  // a few reps alone give a noisy median.
  std::vector<double> setup_s;
  for (const RepResult& rep : plain) {
    setup_s.push_back(SetupS(rep));
  }
  const int64_t setups_start = WallNs();
  while (!args.trace && !spec.check_only && setup_s.size() < kMaxSetups &&
         (setup_s.size() < kMinSetups ||
          static_cast<double>(WallNs() - setups_start) * 1e-9 < kMinSetupWallS)) {
    setup_s.push_back(SetupS(spec.run(spec, args.seed, RepMode::kSetupOnly)));
  }

  // Correctness over every rep, and bit-identical simulation across reps.
  const RepResult& first = plain.front();
  const uint64_t digest = SimDigest(first);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t readback = 0;
  std::vector<std::string> errors;
  for (const auto* reps : {&plain, &traced}) {
    for (const RepResult& rep : *reps) {
      attempted += rep.attempted;
      failed += rep.failed;
      mismatches += rep.mismatches;
      readback += rep.readback_checked;
      errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());
      if (SimDigest(rep) != digest) {
        mismatches++;
        errors.push_back("simulated metrics differ between reps of one seed");
      }
    }
  }
  const bool correct = failed == 0 && mismatches == 0;

  std::map<std::string, double> values;
  for (const Metric& metric : first.sim) {
    values[metric.name] = metric.value;
  }
  values["host_ns_per_op"] = MedianOver(plain, HostNsPerOp);
  values["setup_s"] = Median(setup_s);
  values["peak_rss_mib"] = peak_rss_mib;
  values["sim.host_ns_per_event"] = values["host_ns_per_op"] *
                                    static_cast<double>(first.window_ops) /
                                    static_cast<double>(first.window_events);
  if (!traced.empty()) {
    values["sim.step_self_ns_per_op"] =
        MedianOver(traced, [](const RepResult& r) { return PerOp(r, Layer::kStep, true); });
    values["workload.next_op_ns"] = MedianOver(
        traced, [](const RepResult& r) { return PerOp(r, Layer::kNextOp, false); });
    values["net.encode_ns_per_op"] = MedianOver(
        traced, [](const RepResult& r) { return PerOp(r, Layer::kEncode, true); });
    values["core.deliver_ns_per_op"] = MedianOver(
        traced, [](const RepResult& r) { return PerOp(r, Layer::kDeliver, true); });
    values["cluster.client_flush_ns_per_op"] = MedianOver(
        traced, [](const RepResult& r) { return PerOp(r, Layer::kFlush, false); });
    values["cluster.client_flush_growth"] =
        MedianOver(traced, [](const RepResult& r) { return r.flush_growth; });
    values["hash.preload_ns_per_key"] =
        MedianOver(traced, [](const RepResult& r) { return r.preload_ns_per_key / SetupScale(r); });
    values["hash.functional_ns_per_op"] =
        MedianOver(traced, [](const RepResult& r) { return r.functional_ns_per_op; });
    const double untraced = values["host_ns_per_op"];
    values["obs.trace_overhead_pct"] =
        (MedianOver(traced, HostNsPerOp) - untraced) / untraced * 100;
  }

  // --- human-readable report ---
  std::printf("== %s  seed %" PRIu64 "  reps %zu untraced + %zu traced%s\n", spec.name,
              args.seed, plain.size(), traced.size(),
              spec.check_only ? "  (correctness scenario)" : "");
  std::printf("   end-to-end (sim_* simulated; host time is calibrated thread CPU):\n");
  for (const Catalog& m : kEndToEnd) {
    std::printf("     %-18s %14.4f %s\n", m.name, values[m.name], m.unit);
  }
  std::printf("     per rep: host ns/op raw/calibrated, host slowdown:");
  for (const RepResult& rep : plain) {
    std::printf(" %.0f/%.0f/%.3f", rep.drive_cpu_ns / static_cast<double>(rep.window_ops),
                HostNsPerOp(rep), rep.drive_slowdown);
  }
  std::printf("\n     setup s raw/calibrated, host slowdown:");
  for (const RepResult& rep : plain) {
    std::printf(" %.3f/%.3f/%.3f", rep.setup_cpu_s, SetupS(rep), rep.setup_slowdown);
  }
  std::printf("\n     setup s (calibrated) over %zu set-ups: min %.4f median %.4f max %.4f\n",
              setup_s.size(), *std::min_element(setup_s.begin(), setup_s.end()),
              values["setup_s"], *std::max_element(setup_s.begin(), setup_s.end()));
  std::printf("     latency samples %" PRIu64 "; window %" PRIu64
              " ops; failed_op_ratio %.6f (%" PRIu64 " of %" PRIu64 ")\n",
              first.latency_samples, first.window_ops,
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0, failed,
              attempted);
  std::printf("   roofline: busiest %s at %.4f (core %.4f, wire %.4f, pcie link "
              "%.4f, pcie tags %.4f, dram %.4f)\n",
              first.busiest_resource.c_str(), values["bound.max_util"],
              values["core.issue_util"], values["net.wire_util"],
              values["pcie.link_util"], values["pcie.tag_occupancy"],
              values["dram.channel_util"]);
  if (!first.tag_limited_verdict.empty()) {
    std::printf("   tag-limited claim (EXPERIMENTS.md): %s\n",
                first.tag_limited_verdict.c_str());
  }
  std::printf("   dram hit rate: warm-up %.4f, measured %.4f\n",
              values["dram.warmup_hit_rate"], values["dram.hit_rate"]);
  if (!traced.empty()) {
    const RepResult& t = traced.front();
    std::printf("   traced self time per op (calibrated ns, first traced rep):\n");
    int64_t sum = 0;
    for (int i = 0; i < static_cast<int>(Layer::kCount); i++) {
      const Spans::Totals& totals = t.spans[i];
      sum += totals.self_ns;
      if (totals.calls > 0) {
        std::printf("     %-32s %10.1f\n", LayerName(static_cast<Layer>(i)),
                    PerOp(t, static_cast<Layer>(i), true));
      }
    }
    const int64_t drive = t.spans[static_cast<int>(Layer::kDrive)].total_ns;
    std::printf("     self-time sum %.1f = traced drive %.1f ns/op\n",
                static_cast<double>(sum) / t.drive_slowdown / t.window_ops,
                static_cast<double>(drive) / t.drive_slowdown / t.window_ops);
    std::printf("   per-layer:\n");
    for (const Catalog& m : kPerLayer) {
      std::printf("     %-36s %14.4f %s\n", m.name, values[m.name], m.unit);
    }
  }
  std::printf("   read-back checked %" PRIu64 " keys; value mismatches %" PRIu64 "\n",
              readback, mismatches);
  for (const std::string& error : errors) {
    std::printf("   ERROR: %s\n", error.c_str());
  }
  std::printf("   sim_digest %016" PRIx64 "  correct %s\n", digest,
              correct ? "yes" : "NO");

  // --- result line ---
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed + mismatches);
  bool first_metric = true;
  const auto emit = [&](const Catalog& m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first_metric ? "" : ", ", m.name, values[m.name], m.unit);
    first_metric = false;
  };
  if (args.trace) {
    for (const Catalog& m : kPerLayer) {
      emit(m);
    }
  } else {
    for (const Catalog& m : kEndToEnd) {
      emit(m);
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct;
}

}  // namespace
}  // namespace kvd::perf

int main(int argc, char** argv) {
  using kvd::perf::kWorkloads;
  if (argc == 2 && std::string(argv[1]) == "--list") {
    for (const kvd::perf::WorkloadSpec& spec : kWorkloads) {
      std::printf("%s\n", spec.name);
    }
    return 0;
  }
  kvd::perf::Args args;
  if (!kvd::perf::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n       %s --list\n",
                 argv[0], argv[0]);
    return 2;
  }
  // One workload per process, so peak_rss_mib is that workload's own.
  for (const kvd::perf::WorkloadSpec& spec : kWorkloads) {
    if (args.workload == spec.name) {
      // The reference kernel's first run allocates its table; keep that
      // out of every measurement.
      kvd::perf::Calibration().Run();
      return kvd::perf::RunWorkload(spec, args) ? 0 : 1;
    }
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
