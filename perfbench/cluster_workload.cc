// Cluster workloads: a ClusterCoordinator of two RF-3 replication groups,
// driven by one ClusterClient over the framed reliable transport with
// closed batches of YCSB-A operations. Two scripted events run inside the
// measured window: a live partition migration, and a backup crash whose
// restart waits until the primary's log has trimmed past it, so recovery
// must use state transfer. The spec sets the client's think time between
// batches and the migration's timing.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/report.h"
#include "src/cluster/cluster_client.h"
#include "src/cluster/coordinator.h"
#include "src/common/assert.h"
#include "src/workload/ycsb.h"

namespace kvd::perf {
namespace {

constexpr uint32_t kGroups = 2;
constexpr uint32_t kReplicas = 3;
constexpr uint32_t kBatchOps = 64;
// Calibration cadence (bench.h): every few milliseconds of host time.
constexpr uint64_t kCalibrateEveryBatches = 2;
constexpr uint64_t kCalibrateEveryKeys = 256;
// Lowered from the default so the crashed backup falls behind the trimmed
// log within the window.
constexpr uint64_t kMaxLogEntries = 512;
constexpr uint32_t kMigratedPartition = 0;  // owned by group 0 initially
constexpr uint32_t kCrashGroup = 1;
constexpr uint32_t kCrashReplica = 2;
constexpr SimTime kQuiesce = 5 * kMillisecond;

ClusterConfig MakeConfig(const WorkloadSpec& spec) {
  ClusterConfig config;
  config.num_groups = kGroups;
  config.group.num_replicas = kReplicas;
  config.group.server.kvs_memory_bytes = 8 * kMiB;
  config.group.server.nic_dram.capacity_bytes = 1 * kMiB;
  config.group.server.AutoTune(spec.kv_bytes, spec.long_tail);
  config.group.max_log_entries = kMaxLogEntries;
  if (spec.migration_poll_interval > 0) {
    config.migration_poll_interval = spec.migration_poll_interval;
  }
  if (spec.cutover_quiesce > 0) {
    config.cutover_quiesce = spec.cutover_quiesce;
  }
  return config;
}

std::vector<KvDirectServer*> AllServers(ClusterCoordinator& cluster) {
  std::vector<KvDirectServer*> servers;
  for (uint32_t g = 0; g < cluster.num_groups(); g++) {
    for (uint32_t r = 0; r < cluster.group(g).num_replicas(); r++) {
      servers.push_back(&cluster.group(g).replica(r));
    }
  }
  return servers;
}

// Group-level counters the window needs beyond the per-server ones.
struct GroupCounters {
  uint64_t entries_shipped = 0;
  uint64_t replayed_responses = 0;
  uint64_t state_transfers = 0;
  uint64_t state_transfer_kvs = 0;
  std::vector<LatencyHistogram> commit_wait_ns;
};

GroupCounters TakeGroupCounters(ClusterCoordinator& cluster) {
  GroupCounters c;
  for (uint32_t g = 0; g < cluster.num_groups(); g++) {
    const ReplicationGroup::GroupStats stats = cluster.group(g).stats();
    c.entries_shipped += stats.entries_shipped;
    c.replayed_responses += stats.replayed_responses;
    c.state_transfers += stats.state_transfers;
    c.state_transfer_kvs += stats.state_transfer_kvs;
    c.commit_wait_ns.push_back(cluster.group(g).commit_wait_ns());
  }
  return c;
}

class ClusterRun {
 public:
  ClusterRun(const WorkloadSpec& spec, uint64_t seed, Spans& spans, RepResult& rep)
      : spec_(spec),
        cluster_(MakeConfig(spec)),
        workload_(MakeWorkload(spec, seed)),
        shadow_(workload_.config()),
        spans_(spans),
        rep_(rep) {}

  void Preload(Calibration& calibration) {
    int64_t load_ns = 0;
    for (uint64_t id = 0; id < spec_.num_keys; id++) {
      if (id % kCalibrateEveryKeys == 0) {
        calibration.Run();
      }
      const KvOperation op = workload_.LoadOpFor(id);
      const int64_t start = spans_.enabled() ? WallNs() : 0;
      const Status status = cluster_.Load(op.key, op.value);
      if (spans_.enabled()) {
        load_ns += WallNs() - start;
      }
      KVD_CHECK_MSG(status.ok(), "preload does not fit the store");
      shadow_.Issue(op);
    }
    rep_.preload_ns_per_key = static_cast<double>(load_ns) / spec_.num_keys;
    client_ = std::make_unique<ClusterClient>(cluster_);
  }

  // Issues one batch and flushes it to completion; returns its simulated
  // latency.
  SimTime Batch() {
    std::vector<std::pair<uint64_t, int>> expect;  // Shadow::Issue per op
    expect.reserve(kBatchOps);
    Simulator& sim = cluster_.simulator();
    std::vector<KvOperation> ops(kBatchOps);
    {
      Span span(spans_, Layer::kNextOp);
      for (KvOperation& op : ops) {
        op = workload_.NextOp();
      }
    }
    {
      Span span(spans_, Layer::kCheck);
      for (const KvOperation& op : ops) {
        expect.push_back(shadow_.Issue(op));
      }
    }
    rep_.attempted += kBatchOps;
    const SimTime issued = sim.Now();
    std::vector<KvResultMessage> results;
    {
      Span span(spans_, Layer::kFlush);
      for (KvOperation& op : ops) {
        client_->Enqueue(std::move(op));
      }
      client_->BeginFlush();
      while (!client_->flush_done()) {
        Span step(spans_, Layer::kStep);
        KVD_CHECK(sim.Step());  // group heartbeats keep the queue non-empty
      }
      results = client_->TakeResults();
    }
    const SimTime latency = sim.Now() - issued;
    if (spec_.think_time > 0) {
      sim.RunUntil(sim.Now() + spec_.think_time);
    }
    Span span(spans_, Layer::kCheck);
    KVD_CHECK(results.size() == expect.size());
    for (size_t i = 0; i < results.size(); i++) {
      const auto [id, expected] = expect[i];
      const bool put = expected == Shadow::kPut;
      if (shadow_.Check(id, expected, results[i], put ? "PUT" : "GET", rep_) && put) {
        writes_acked_++;
      }
    }
    return latency;
  }

  // Every acknowledged write must be readable on every live replica of the
  // key's final owner group once the cluster has quiesced.
  void ReadBack() {
    Simulator& sim = cluster_.simulator();
    sim.RunUntil(sim.Now() + kQuiesce);
    const ShardMap& map = cluster_.shard_map();
    const KeyRouter router = map.router();
    for (uint64_t id = 0; id < spec_.num_keys; id++) {
      KvOperation op;
      op.key = workload_.KeyFor(id);
      ReplicationGroup& group = cluster_.group(map.OwnerOf(router.PartitionOf(op.key)));
      for (uint32_t r = 0; r < group.num_replicas(); r++) {
        rep_.readback_checked++;
        shadow_.Check(id, shadow_.fill(id), group.replica(r).Execute(op),
                      "read-back on replica " + std::to_string(r), rep_);
      }
    }
  }

  ClusterCoordinator& cluster() { return cluster_; }
  ClusterClient& client() { return *client_; }
  uint64_t writes_acked() const { return writes_acked_; }

 private:
  const WorkloadSpec& spec_;
  ClusterCoordinator cluster_;
  YcsbWorkload workload_;
  Shadow shadow_;
  Spans& spans_;
  RepResult& rep_;
  std::unique_ptr<ClusterClient> client_;
  uint64_t writes_acked_ = 0;
};

uint64_t Bounces(const ClusterClient::Stats& s) {
  return s.redirects_followed + s.stale_retries + s.wrong_shard_bounces +
         s.migrating_backoffs;
}

}  // namespace

RepResult RunClusterRep(const WorkloadSpec& spec, uint64_t seed, RepMode mode) {
  RepResult rep;
  const bool traced = mode == RepMode::kTraced;
  Spans spans(traced);

  Calibration setup_calibration;
  const int64_t setup_cpu = ThreadCpuNs();
  setup_calibration.Run();
  auto run = std::make_unique<ClusterRun>(spec, seed, spans, rep);
  run->Preload(setup_calibration);
  setup_calibration.Run();
  rep.setup_cpu_s = static_cast<double>(ThreadCpuNs() - setup_cpu -
                                        setup_calibration.overhead_ns()) * 1e-9;
  rep.setup_slowdown = setup_calibration.slowdown();
  if (mode == RepMode::kSetupOnly) {
    return rep;
  }

  ClusterCoordinator& cluster = run->cluster();
  Simulator& sim = cluster.simulator();
  const std::vector<KvDirectServer*> servers = AllServers(cluster);
  const Snapshot cold = TakeSnapshot(sim, servers);
  std::vector<int64_t> flush_ns;  // ClusterClient flush host time per batch
  const auto batch = [&] {
    const int64_t flushed_before = spans.totals(Layer::kFlush).total_ns;
    const SimTime latency = run->Batch();
    flush_ns.push_back(spans.totals(Layer::kFlush).total_ns - flushed_before);
    return latency;
  };
  for (uint64_t b = 0; b < spec.warmup_batches; b++) {
    batch();
  }
  const Snapshot warm = TakeSnapshot(sim, servers);
  const GroupCounters groups_warm = TakeGroupCounters(cluster);
  const ClusterClient::Stats client_warm = run->client().stats();
  const ClusterCoordinator::ClusterStats cluster_warm = cluster.stats();
  const uint64_t writes_warm = run->writes_acked();
  ReplicationGroup& crash_group = cluster.group(kCrashGroup);

  spans.Reset();
  std::vector<SimTime> latencies;
  bool crashed = false;
  bool restarted = false;
  Calibration drive_calibration;
  const int64_t drive_cpu = ThreadCpuNs();
  drive_calibration.Run();
  spans.Begin(Layer::kDrive);
  for (uint64_t b = 0; b < spec.measured_batches; b++) {
    if (b == spec.measured_batches / 3) {
      KVD_CHECK(cluster.StartMigration(kMigratedPartition, 1).ok());
    }
    if (b == spec.measured_batches / 2) {
      KVD_CHECK(crash_group.primary_id() != kCrashReplica);
      crash_group.CrashReplica(kCrashReplica);
      crashed = true;
    }
    // Restart once the primary has trimmed every entry the backup lacks.
    if (crashed && !restarted &&
        crash_group.log_end(crash_group.primary_id()) >
            crash_group.log_end(kCrashReplica) + kMaxLogEntries) {
      crash_group.RestartReplica(kCrashReplica);
      restarted = true;
    }
    latencies.push_back(batch());
    if ((b + 1) % kCalibrateEveryBatches == 0) {
      Span calibrate(spans, Layer::kCalibrate);
      drive_calibration.Run();
    }
  }
  spans.End();
  rep.drive_cpu_ns = static_cast<double>(ThreadCpuNs() - drive_cpu -
                                         drive_calibration.overhead_ns());
  rep.drive_slowdown = drive_calibration.slowdown();
  const Snapshot end = TakeSnapshot(sim, servers);
  const GroupCounters groups_end = TakeGroupCounters(cluster);
  const ClusterClient::Stats& client_end = run->client().stats();
  const ClusterCoordinator::ClusterStats& cluster_end = cluster.stats();

  const uint64_t ops = spec.measured_batches * kBatchOps;
  rep.window_ops = ops;
  rep.window_events = end.events - warm.events;
  const double elapsed_us = static_cast<double>(end.now - warm.now) / kMicrosecond;
  rep.AddSim("sim_mops", static_cast<double>(ops) / elapsed_us);
  AddLatencyMetrics(latencies, rep);
  rep.AddSim("dram.warmup_hit_rate", DramHitRate(cold, warm));
  AddLayerMetrics(warm, end, ops, servers, rep);

  const double dops = static_cast<double>(ops);
  const double packets =
      static_cast<double>(client_end.packets_sent - client_warm.packets_sent);
  rep.AddSim("transport.packets_per_op", packets / dops);
  rep.AddSim("transport.retransmits_per_packet",
             static_cast<double>(client_end.retransmits - client_warm.retransmits) /
                 packets);
  rep.AddSim("transport.replayed_responses",
             static_cast<double>(groups_end.replayed_responses -
                                 groups_warm.replayed_responses));
  const uint64_t writes = run->writes_acked() - writes_warm;
  rep.AddSim("replica.entries_shipped_per_write",
             static_cast<double>(groups_end.entries_shipped - groups_warm.entries_shipped) /
                 static_cast<double>(std::max<uint64_t>(writes, 1)));
  std::vector<const LatencyHistogram*> wait_start;
  std::vector<const LatencyHistogram*> wait_end;
  for (uint32_t g = 0; g < kGroups; g++) {
    wait_start.push_back(&groups_warm.commit_wait_ns[g]);
    wait_end.push_back(&groups_end.commit_wait_ns[g]);
  }
  rep.AddSim("replica.commit_wait_p99_us",
             static_cast<double>(WindowPercentile(wait_start, wait_end, 0.99)) / 1000);
  rep.AddSim("replica.state_transfer_kvs",
             static_cast<double>(groups_end.state_transfer_kvs -
                                 groups_warm.state_transfer_kvs));
  rep.AddSim("cluster.migration_sim_us",
             static_cast<double>(cluster.migration_ns().max()) / 1000);
  rep.AddSim("cluster.copy_kvs",
             static_cast<double>(cluster_end.copy_kvs - cluster_warm.copy_kvs));
  rep.AddSim("cluster.bounces_per_op",
             static_cast<double>(Bounces(client_end) - Bounces(client_warm)) / dops);

  // The scripted events must have happened inside the window.
  if (cluster_end.migrations_completed != 1) {
    rep.mismatches++;
    rep.Fail("the live migration did not complete inside the window");
  }
  if (!restarted || groups_end.state_transfers == groups_warm.state_transfers) {
    rep.mismatches++;
    rep.Fail("the restarted backup did not recover through state transfer");
  }
  run->ReadBack();

  if (traced) {
    for (int i = 0; i < static_cast<int>(Layer::kCount); i++) {
      rep.spans[i] = spans.totals(static_cast<Layer>(i));
    }
    // Host cost per op of the last tenth of the rep's batches (warm-up
    // included) over the first: the client's per-key state grows from empty.
    const size_t tenth = std::max<size_t>(1, flush_ns.size() / 10);
    int64_t head = 0;
    int64_t tail = 0;
    for (size_t i = 0; i < tenth; i++) {
      head += flush_ns[i];
      tail += flush_ns[flush_ns.size() - 1 - i];
    }
    rep.flush_growth = static_cast<double>(tail) / static_cast<double>(head);
  }
  return rep;
}

}  // namespace kvd::perf
