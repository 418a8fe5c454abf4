#include "perfbench/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <string>

namespace kvd::perf {

int64_t WallNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

WorkloadConfig MakeWorkload(const WorkloadSpec& spec, uint64_t seed) {
  WorkloadConfig wl;
  wl.value_bytes = spec.kv_bytes - wl.key_bytes;
  wl.get_ratio = spec.get_ratio;
  wl.distribution =
      spec.long_tail ? KeyDistribution::kLongTail : KeyDistribution::kUniform;
  wl.num_keys = spec.num_keys;
  wl.seed = seed;
  return wl;
}

std::pair<uint64_t, int> Shadow::Issue(const KvOperation& op) {
  uint64_t id = 0;  // keys are ids, little-endian
  std::memcpy(&id, op.key.data(), std::min(op.key.size(), sizeof(id)));
  if (op.opcode == Opcode::kPut) {
    fill_[id] = op.value[0];
    return {id, kPut};
  }
  return {id, fill_[id]};
}

bool Shadow::Check(uint64_t id, int expect, const KvResultMessage& result,
                   const std::string& what, RepResult& rep) const {
  const std::string op = what + " of key " + std::to_string(id);
  if (result.code != ResultCode::kOk) {
    rep.failed++;
    rep.Fail(op + " returned " + ResultCodeName(result.code));
    return false;
  }
  if (expect == kPut) {
    return true;
  }
  const auto fill = static_cast<uint8_t>(expect);
  const bool match =
      result.value.size() == value_bytes_ &&
      std::all_of(result.value.begin(), result.value.end(),
                  [fill](uint8_t b) { return b == fill; });
  if (!match) {
    const std::vector<uint8_t>& v = result.value;
    std::string got;
    if (v.size() != value_bytes_) {
      got = std::to_string(v.size()) + " bytes";
    } else if (std::all_of(v.begin(), v.end(), [&v](uint8_t b) { return b == v[0]; })) {
      got = "fill " + std::to_string(v[0]);
    } else {
      got = "a torn value";
    }
    rep.mismatches++;
    rep.Fail(op + " returned " + got + ", want fill " + std::to_string(fill));
  }
  return match;
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kDrive:
      return "drive loop (benchmark)";
    case Layer::kStep:
      return "Simulator::Step";
    case Layer::kNextOp:
      return "YcsbWorkload::NextOp";
    case Layer::kEncode:
      return "PacketBuilder";
    case Layer::kDeliver:
      return "KvDirectServer::DeliverPacket";
    case Layer::kCheck:
      return "response check (benchmark)";
    case Layer::kFlush:
      return "ClusterClient flush";
    case Layer::kCalibrate:
      return "reference kernel (calibration)";
    case Layer::kCount:
      break;
  }
  return "?";
}

void Spans::Close() {
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t duration = WallNs() - frame.start_ns;
  Totals& totals = totals_[static_cast<int>(frame.layer)];
  totals.total_ns += duration;
  totals.self_ns += duration - frame.child_ns;
  totals.calls++;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
}

uint64_t SimDigest(const RepResult& rep) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; i++) {
      hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
    }
  };
  char buf[64];
  for (const Metric& metric : rep.sim) {
    mix(metric.name.data(), metric.name.size());
    const int n = std::snprintf(buf, sizeof(buf), "=%.17g;", metric.value);
    mix(buf, static_cast<size_t>(n));
  }
  for (const uint64_t counter : rep.raw_counters) {
    mix(&counter, sizeof(counter));
  }
  return hash;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Snapshot TakeSnapshot(Simulator& sim, const std::vector<KvDirectServer*>& servers) {
  Snapshot snap;
  snap.now = sim.Now();
  snap.events = sim.executed_events();
  for (KvDirectServer* server : servers) {
    ServerCounters c;
    const KvProcessorStats& proc = server->processor().stats();
    c.retired = proc.retired;
    c.fast_path_ops = proc.fast_path_ops;
    c.busy_rejected = proc.busy_rejected;
    c.parked = server->processor().station().stats().parked;
    c.chain_follows = server->index().stats().chain_follows;
    c.mem_accesses = server->memory_stats().total();
    const SyncStats& sync = server->allocator().sync_stats();
    c.allocations = sync.allocations;
    c.frees = sync.frees;
    c.sync_dmas = sync.sync_dma_reads + sync.sync_dma_writes;
    const DispatchStats& dispatch = server->dispatcher().stats();
    c.pcie_accesses = dispatch.pcie_accesses;
    c.dram_hits = dispatch.dram_hits;
    c.dram_misses = dispatch.dram_misses;
    c.dram_writebacks = dispatch.writebacks;
    c.dram_bytes = server->nic_dram().bytes_transferred();
    DmaEngine& dma = server->dma();
    c.tag_acquires = dma.tag_pool().total_acquires();
    c.tag_waits = dma.tag_pool().total_waits();
    for (uint32_t i = 0; i < dma.num_links(); i++) {
      PcieLink& link = dma.link(i);
      c.tlps += link.read_tlps() + link.write_tlps();
      c.link_bytes.push_back(link.upstream_bytes());
      c.link_bytes.push_back(link.downstream_bytes());
      c.link_read_latency_ns.push_back(link.read_latency());
    }
    const NetworkModel& net = server->network();
    c.net_packets = {net.packets_to_server(), net.packets_to_client()};
    c.net_bytes = {net.bytes_to_server(), net.bytes_to_client()};
    snap.servers.push_back(std::move(c));
  }
  return snap;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Bucket upper bound -> sample count of a histogram, rebuilt from its CDF.
std::map<uint64_t, double> Buckets(const LatencyHistogram& histogram) {
  std::map<uint64_t, double> buckets;
  double previous = 0;
  for (const auto& [value, cdf] : histogram.Cdf()) {
    buckets[value] += (cdf - previous) * static_cast<double>(histogram.count());
    previous = cdf;
  }
  return buckets;
}

// Sum of a window's samples, from the histograms' exact running sums.
double WindowSum(const LatencyHistogram& start, const LatencyHistogram& end) {
  return end.mean() * static_cast<double>(end.count()) -
         start.mean() * static_cast<double>(start.count());
}

}  // namespace

uint64_t WindowPercentile(const std::vector<const LatencyHistogram*>& start,
                          const std::vector<const LatencyHistogram*>& end,
                          double q) {
  std::map<uint64_t, double> window;
  for (const LatencyHistogram* h : end) {
    for (const auto& [value, count] : Buckets(*h)) {
      window[value] += count;
    }
  }
  for (const LatencyHistogram* h : start) {
    for (const auto& [value, count] : Buckets(*h)) {
      window[value] -= count;
    }
  }
  double total = 0;
  for (const auto& [value, count] : window) {
    total += std::max(0.0, count);
  }
  if (total < 0.5) {
    return 0;
  }
  double seen = 0;
  for (const auto& [value, count] : window) {
    seen += std::max(0.0, count);
    if (seen >= q * total - 1e-6) {
      return value;
    }
  }
  return window.rbegin()->first;
}

void AddLayerMetrics(const Snapshot& a, const Snapshot& b, uint64_t ops,
                     const std::vector<KvDirectServer*>& servers,
                     RepResult& rep) {
  const double elapsed_ps = static_cast<double>(b.now - a.now);
  const double dops = static_cast<double>(ops);
  ServerCounters sum;
  double issue_util = 0;
  double wire_util = 0;
  double link_util = 0;
  double tag_occupancy = 0;
  double channel_util = 0;
  std::vector<const LatencyHistogram*> latency_start;
  std::vector<const LatencyHistogram*> latency_end;
  uint64_t net_packets = 0;
  uint64_t net_bytes = 0;
  for (size_t s = 0; s < servers.size(); s++) {
    const ServerCounters& x = a.servers[s];
    const ServerCounters& y = b.servers[s];
    const ServerConfig& config = servers[s]->config();
    const uint64_t retired = y.retired - x.retired;
    sum.retired += retired;
    sum.fast_path_ops += y.fast_path_ops - x.fast_path_ops;
    sum.busy_rejected += y.busy_rejected - x.busy_rejected;
    sum.parked += y.parked - x.parked;
    sum.chain_follows += y.chain_follows - x.chain_follows;
    sum.mem_accesses += y.mem_accesses - x.mem_accesses;
    sum.allocations += y.allocations - x.allocations;
    sum.frees += y.frees - x.frees;
    sum.sync_dmas += y.sync_dmas - x.sync_dmas;
    sum.pcie_accesses += y.pcie_accesses - x.pcie_accesses;
    sum.dram_hits += y.dram_hits - x.dram_hits;
    sum.dram_misses += y.dram_misses - x.dram_misses;
    sum.dram_writebacks += y.dram_writebacks - x.dram_writebacks;
    sum.tag_acquires += y.tag_acquires - x.tag_acquires;
    sum.tag_waits += y.tag_waits - x.tag_waits;
    sum.tlps += y.tlps - x.tlps;

    // Roofline: each resource's busy time over the window, from the
    // counters and the ServerConfig rates (one utilization per server; the
    // topology's is the busiest server's).
    issue_util = std::max(
        issue_util, Ratio(static_cast<double>(retired) * 1e12 /
                              config.processor.clock_hz,
                          elapsed_ps));
    const NetworkConfig& net = servers[s]->network().config();
    for (int dir = 0; dir < 2; dir++) {
      const uint64_t packets = y.net_packets[dir] - x.net_packets[dir];
      const uint64_t bytes = y.net_bytes[dir] - x.net_bytes[dir];
      net_packets += packets;
      net_bytes += bytes;
      const double busy_ps =
          static_cast<double>(bytes) * PicosPerByte(net.bandwidth_bytes_per_sec) +
          static_cast<double>(packets * net.per_packet_processing);
      wire_util = std::max(wire_util, Ratio(busy_ps, elapsed_ps));
    }
    const PcieLinkConfig& link = config.pcie.link;
    for (size_t i = 0; i < y.link_bytes.size(); i++) {
      const double busy_ps = static_cast<double>(y.link_bytes[i] - x.link_bytes[i]) *
                             PicosPerByte(link.bandwidth_bytes_per_sec);
      link_util = std::max(link_util, Ratio(busy_ps, elapsed_ps));
    }
    // Little's law over the shared tag pool: tags held on average = read
    // TLP rate x mean read latency (issue to completion, a lower bound on
    // tag hold time since it excludes credit waits).
    double tag_ns = 0;
    for (size_t i = 0; i < y.link_read_latency_ns.size(); i++) {
      tag_ns += WindowSum(x.link_read_latency_ns[i], y.link_read_latency_ns[i]);
      latency_start.push_back(&x.link_read_latency_ns[i]);
      latency_end.push_back(&y.link_read_latency_ns[i]);
    }
    tag_occupancy = std::max(
        tag_occupancy, Ratio(tag_ns * kNanosecond,
                             elapsed_ps * config.pcie.read_tags));
    const NicDramConfig& dram = config.nic_dram;
    channel_util = std::max(
        channel_util,
        Ratio(static_cast<double>(y.dram_bytes - x.dram_bytes) *
                  PicosPerByte(dram.bandwidth_bytes_per_sec *
                               dram.random_access_efficiency),
              elapsed_ps));
  }
  const uint64_t events = b.events - a.events;
  const uint64_t dram_cacheable = sum.dram_hits + sum.dram_misses;
  const uint64_t dram_total = dram_cacheable + sum.pcie_accesses;

  rep.AddSim("sim.events_per_op", Ratio(static_cast<double>(events), dops));
  rep.AddSim("net.bytes_per_op", Ratio(static_cast<double>(net_bytes), dops));
  rep.AddSim("net.wire_util", wire_util);
  rep.AddSim("core.issue_util", issue_util);
  rep.AddSim("core.busy_rejected", static_cast<double>(sum.busy_rejected));
  rep.AddSim("ooo.fast_path_share",
             Ratio(static_cast<double>(sum.fast_path_ops), static_cast<double>(sum.retired)));
  rep.AddSim("ooo.parked_per_op", Ratio(static_cast<double>(sum.parked), dops));
  rep.AddSim("hash.chain_follows_per_op",
             Ratio(static_cast<double>(sum.chain_follows), dops));
  rep.AddSim("mem.accesses_per_op", Ratio(static_cast<double>(sum.mem_accesses), dops));
  rep.AddSim("alloc.allocs_per_op", Ratio(static_cast<double>(sum.allocations), dops));
  rep.AddSim("alloc.sync_dma_per_alloc",
             Ratio(static_cast<double>(sum.sync_dmas),
                   static_cast<double>(sum.allocations + sum.frees)));
  rep.AddSim("dram.hit_rate",
             Ratio(static_cast<double>(sum.dram_hits), static_cast<double>(dram_cacheable)));
  rep.AddSim("dram.pcie_share",
             Ratio(static_cast<double>(sum.pcie_accesses + sum.dram_misses),
                   static_cast<double>(dram_total)));
  rep.AddSim("dram.writebacks_per_op",
             Ratio(static_cast<double>(sum.dram_writebacks), dops));
  rep.AddSim("dram.channel_util", channel_util);
  rep.AddSim("pcie.tlps_per_op", Ratio(static_cast<double>(sum.tlps), dops));
  rep.AddSim("pcie.tag_waits_per_read",
             Ratio(static_cast<double>(sum.tag_waits), static_cast<double>(sum.tag_acquires)));
  rep.AddSim("pcie.tag_occupancy", tag_occupancy);
  rep.AddSim("pcie.link_util", link_util);
  rep.AddSim("pcie.read_p99_ns",
             static_cast<double>(WindowPercentile(latency_start, latency_end, 0.99)));

  const std::pair<const char*, double> resources[] = {
      {"core.issue_util", issue_util},   {"net.wire_util", wire_util},
      {"pcie.link_util", link_util},     {"pcie.tag_occupancy", tag_occupancy},
      {"dram.channel_util", channel_util},
  };
  const auto* busiest = std::max_element(
      std::begin(resources), std::end(resources),
      [](const auto& l, const auto& r) { return l.second < r.second; });
  rep.AddSim("bound.max_util", busiest->second);
  rep.busiest_resource = busiest->first;

  rep.raw_counters.insert(
      rep.raw_counters.end(),
      {events, sum.retired, sum.fast_path_ops, sum.busy_rejected, sum.parked,
       sum.chain_follows, sum.mem_accesses, sum.allocations, sum.frees,
       sum.sync_dmas, sum.pcie_accesses, sum.dram_hits, sum.dram_misses,
       sum.dram_writebacks, sum.tag_acquires, sum.tag_waits, sum.tlps,
       net_packets, net_bytes});
}

double DramHitRate(const Snapshot& a, const Snapshot& b) {
  double hits = 0;
  double misses = 0;
  for (size_t s = 0; s < a.servers.size(); s++) {
    hits += static_cast<double>(b.servers[s].dram_hits - a.servers[s].dram_hits);
    misses += static_cast<double>(b.servers[s].dram_misses - a.servers[s].dram_misses);
  }
  return Ratio(hits, hits + misses);
}

void AddLatencyMetrics(std::vector<SimTime> samples_ps, RepResult& rep) {
  std::sort(samples_ps.begin(), samples_ps.end());
  // Nearest-rank percentile: the smallest sample with at least q*n samples
  // at or below it.
  auto rank = [&samples_ps](double q) {
    const auto n = static_cast<double>(samples_ps.size());
    const auto index = static_cast<size_t>(std::max(1.0, std::ceil(q * n))) - 1;
    return static_cast<double>(samples_ps[index]) / kMicrosecond;
  };
  rep.latency_samples = samples_ps.size();
  rep.AddSim("sim_p50_us", samples_ps.empty() ? 0 : rank(0.50));
  rep.AddSim("sim_p99_us", samples_ps.empty() ? 0 : rank(0.99));
}

}  // namespace kvd::perf
