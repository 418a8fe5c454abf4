// Single-server workloads: one KvDirectServer behind the 40 GbE model,
// driven closed-loop with packets of YCSB operations.
//
// The driver makes the round trip that Client::SubmitPacket makes —
// NetworkModel::SendToServer, KvDirectServer::DeliverPacket,
// NetworkModel::SendToClient — but keeps every response, decodes it and
// checks each result against a shadow of the last value issued per key.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/report.h"
#include "src/common/assert.h"
#include "src/common/random.h"
#include "src/core/kv_direct.h"
#include "src/net/wire_format.h"
#include "src/workload/ycsb.h"

namespace kvd::perf {
namespace {

constexpr uint64_t kStoreBytes = 32 * kMiB;
constexpr uint64_t kNicDramBytes = 4 * kMiB;
constexpr uint32_t kOpsPerPacket = 40;
constexpr uint32_t kOpsOutstanding = 2048;
constexpr uint32_t kPacketPayload = 4096;
constexpr uint64_t kReadbackKeys = 4096;
constexpr size_t kReplayChunk = 4096;
// Calibration cadence (bench.h): every few milliseconds of host time.
constexpr uint64_t kCalibrateEveryOps = 1000;
constexpr uint64_t kCalibrateEveryKeys = 20000;

ServerConfig MakeConfig(const WorkloadSpec& spec) {
  ServerConfig config;
  config.kvs_memory_bytes = kStoreBytes;
  config.nic_dram.capacity_bytes = kNicDramBytes;
  config.AutoTune(spec.kv_bytes, spec.long_tail);
  return config;
}

class ServerRun {
 public:
  ServerRun(const WorkloadSpec& spec, uint64_t seed, Spans& spans, RepResult& rep)
      : config_(MakeConfig(spec)),
        server_(config_),
        workload_(MakeWorkload(spec, seed)),
        shadow_(workload_.config()),
        spans_(spans),
        rep_(rep),
        slots_(kOpsOutstanding / kOpsPerPacket) {
    for (uint32_t i = 0; i < slots_.size(); i++) {
      free_slots_.push_back(i);
    }
  }

  // Untimed-by-the-simulator preload of every key; each value's fill byte
  // seeds the shadow.
  void Preload() {
    const uint64_t keys = workload_.config().num_keys;
    int64_t load_ns = 0;
    for (uint64_t id = 0; id < keys; id++) {
      if (id % kCalibrateEveryKeys == 0) {
        calibration_->Run();
      }
      const KvOperation op = workload_.LoadOpFor(id);
      const int64_t start = spans_.enabled() ? WallNs() : 0;
      const Status status = server_.Load(op.key, op.value);
      if (spans_.enabled()) {
        load_ns += WallNs() - start;
      }
      KVD_CHECK_MSG(status.ok(), "preload does not fit the store");
      shadow_.Issue(op);
    }
    rep_.preload_ns_per_key = static_cast<double>(load_ns) / static_cast<double>(keys);
  }

  // Closed loop: keeps kOpsOutstanding ops in flight until `ops` more
  // operations have completed.
  void Drive(uint64_t ops) {
    target_ = submitted_ + ops;
    for (uint32_t i = 0; i < slots_.size(); i++) {
      SendPacket();
    }
    Simulator& sim = server_.simulator();
    while (completed_ < target_) {
      Span step(spans_, Layer::kStep);
      KVD_CHECK(sim.Step());
    }
  }

  // Reads back a seeded sample of keys through the functional path.
  void ReadBack(uint64_t seed) {
    Rng rng(seed ^ 0x7265616462616bULL);
    for (uint64_t i = 0; i < kReadbackKeys; i++) {
      const uint64_t id = rng.NextBelow(workload_.config().num_keys);
      KvOperation op;
      op.key = workload_.KeyFor(id);
      shadow_.Check(id, shadow_.fill(id), server_.Execute(op), "read-back", rep_);
      rep_.readback_checked++;
    }
  }

  // Replays the op stream through KvDirectServer::Execute on a twin store
  // in the same state; returns calibrated host ns per op of the measured
  // part.
  static double FunctionalReplay(const WorkloadSpec& spec, uint64_t seed) {
    const ServerConfig config = MakeConfig(spec);
    KvDirectServer twin(config);
    YcsbWorkload workload(MakeWorkload(spec, seed));
    for (uint64_t id = 0; id < workload.config().num_keys; id++) {
      const KvOperation op = workload.LoadOpFor(id);
      KVD_CHECK(twin.Load(op.key, op.value).ok());
    }
    for (uint64_t i = 0; i < spec.warmup_ops; i++) {
      twin.Execute(workload.NextOp());
    }
    std::vector<KvOperation> chunk;
    int64_t ns = 0;
    Calibration calibration;
    for (uint64_t done = 0; done < spec.measured_ops; done += chunk.size()) {
      calibration.Run();
      chunk.clear();
      while (chunk.size() < kReplayChunk && done + chunk.size() < spec.measured_ops) {
        chunk.push_back(workload.NextOp());
      }
      const int64_t start = ThreadCpuNs();
      for (const KvOperation& op : chunk) {
        twin.Execute(op);
      }
      ns += ThreadCpuNs() - start;
    }
    return static_cast<double>(ns) / calibration.slowdown() /
           static_cast<double>(spec.measured_ops);
  }

  // Where calibration runs go; during a drive, nullptr disables them.
  void set_calibration(Calibration* calibration) { calibration_ = calibration; }

  KvDirectServer& server() { return server_; }
  std::vector<SimTime>& latencies() { return latencies_; }

 private:
  struct Packet {
    SimTime issued = 0;
    std::vector<std::pair<uint64_t, int>> expect;  // Shadow::Issue per op
  };

  void SendPacket() {
    if (submitted_ >= target_) {
      return;
    }
    const auto n =
        static_cast<uint32_t>(std::min<uint64_t>(kOpsPerPacket, target_ - submitted_));
    KVD_CHECK(!free_slots_.empty());
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    ops_.resize(n);
    {
      Span span(spans_, Layer::kNextOp);
      for (uint32_t i = 0; i < n; i++) {
        ops_[i] = workload_.NextOp();
      }
    }
    std::vector<uint8_t> payload;
    {
      Span span(spans_, Layer::kEncode);
      PacketBuilder builder(kPacketPayload);
      for (uint32_t i = 0; i < n; i++) {
        KVD_CHECK(builder.Add(ops_[i]));
      }
      payload = builder.Finish();
    }
    {
      Span span(spans_, Layer::kCheck);
      Packet& packet = slots_[slot];
      packet.expect.clear();
      for (const KvOperation& op : ops_) {
        packet.expect.push_back(shadow_.Issue(op));
      }
      packet.issued = server_.simulator().Now();
    }
    submitted_ += n;
    rep_.attempted += n;
    NetworkModel& network = server_.network();
    const auto size = static_cast<uint32_t>(payload.size());
    network.SendToServer(size, [this, slot, payload = std::move(payload)]() mutable {
      Span span(spans_, Layer::kDeliver);
      server_.DeliverPacket(std::move(payload), [this, slot](std::vector<uint8_t> response) {
        const auto response_size = static_cast<uint32_t>(response.size());
        server_.network().SendToClient(
            response_size,
            [this, slot, response = std::move(response)] { OnResponse(slot, response); });
      });
    });
  }

  void OnResponse(uint32_t slot, const std::vector<uint8_t>& response) {
    {
      Span span(spans_, Layer::kCheck);
      Packet& packet = slots_[slot];
      Result<std::vector<KvResultMessage>> results = DecodeResults(response);
      if (!results.ok() || results.value().size() != packet.expect.size()) {
        rep_.mismatches += packet.expect.size();
        rep_.Fail("undecodable response packet");
      } else {
        for (size_t i = 0; i < packet.expect.size(); i++) {
          const auto [id, expect] = packet.expect[i];
          shadow_.Check(id, expect, results.value()[i],
                        expect == Shadow::kPut ? "PUT" : "GET", rep_);
        }
      }
      completed_ += packet.expect.size();
      if (calibration_ != nullptr && completed_ % kCalibrateEveryOps == 0) {
        Span calibrate(spans_, Layer::kCalibrate);
        calibration_->Run();
      }
      latencies_.push_back(server_.simulator().Now() - packet.issued);
      free_slots_.push_back(slot);
    }
    SendPacket();
  }

  ServerConfig config_;
  KvDirectServer server_;
  YcsbWorkload workload_;
  Shadow shadow_;
  Spans& spans_;
  RepResult& rep_;
  std::vector<Packet> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<KvOperation> ops_;
  std::vector<SimTime> latencies_;
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t target_ = 0;
  Calibration* calibration_ = nullptr;
};

}  // namespace

RepResult RunServerRep(const WorkloadSpec& spec, uint64_t seed, RepMode mode) {
  RepResult rep;
  const bool traced = mode == RepMode::kTraced;
  Spans spans(traced);

  Calibration setup_calibration;
  const int64_t setup_cpu = ThreadCpuNs();
  auto run = std::make_unique<ServerRun>(spec, seed, spans, rep);
  run->set_calibration(&setup_calibration);
  run->Preload();
  setup_calibration.Run();
  rep.setup_cpu_s = static_cast<double>(ThreadCpuNs() - setup_cpu -
                                        setup_calibration.overhead_ns()) * 1e-9;
  rep.setup_slowdown = setup_calibration.slowdown();
  run->set_calibration(nullptr);
  if (mode == RepMode::kSetupOnly) {
    return rep;
  }

  // Warm-up fills the NIC DRAM cache (it starts empty after the preload)
  // before the measured window opens.
  KvDirectServer& server = run->server();
  const std::vector<KvDirectServer*> servers = {&server};
  const Snapshot cold = TakeSnapshot(server.simulator(), servers);
  run->Drive(spec.warmup_ops);
  const Snapshot warm = TakeSnapshot(server.simulator(), servers);
  run->latencies().clear();
  const uint64_t attempted_before = rep.attempted;

  spans.Reset();
  Calibration drive_calibration;
  const int64_t drive_cpu = ThreadCpuNs();
  drive_calibration.Run();
  run->set_calibration(&drive_calibration);
  spans.Begin(Layer::kDrive);
  run->Drive(spec.measured_ops);
  spans.End();
  rep.drive_cpu_ns = static_cast<double>(ThreadCpuNs() - drive_cpu -
                                         drive_calibration.overhead_ns());
  rep.drive_slowdown = drive_calibration.slowdown();
  run->set_calibration(nullptr);
  const Snapshot end = TakeSnapshot(server.simulator(), servers);

  const uint64_t ops = rep.attempted - attempted_before;
  rep.window_ops = ops;
  rep.window_events = end.events - warm.events;
  const double elapsed_us = static_cast<double>(end.now - warm.now) / kMicrosecond;
  rep.AddSim("sim_mops", static_cast<double>(ops) / elapsed_us);
  AddLatencyMetrics(std::move(run->latencies()), rep);
  rep.AddSim("dram.warmup_hit_rate", DramHitRate(cold, warm));
  AddLayerMetrics(warm, end, ops, servers, rep);
  // One unframed request packet per round trip; no retransmission path.
  rep.AddSim("transport.packets_per_op",
             static_cast<double>(end.servers[0].net_packets[0] -
                                 warm.servers[0].net_packets[0]) /
                 static_cast<double>(ops));

  // EXPERIMENTS.md attributes the gap to 180 Mops to the 64 PCIe tags.
  rep.tag_limited_verdict =
      rep.busiest_resource == "pcie.tag_occupancy"
          ? "confirmed: PCIe tags are the busiest resource"
          : "contradicted: the busiest resource is " + rep.busiest_resource +
                ", not the PCIe tags";

  run->ReadBack(seed);
  if (traced) {
    for (int i = 0; i < static_cast<int>(Layer::kCount); i++) {
      rep.spans[i] = spans.totals(static_cast<Layer>(i));
    }
    run.reset();
    rep.functional_ns_per_op = ServerRun::FunctionalReplay(spec, seed);
  }
  return rep;
}

}  // namespace kvd::perf
