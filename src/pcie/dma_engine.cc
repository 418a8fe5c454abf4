#include "src/pcie/dma_engine.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/assert.h"
#include "src/common/hashing.h"

namespace kvd {

DmaEngine::DmaEngine(Simulator& sim, const DmaEngineConfig& config)
    : sim_(sim), config_(config), read_tags_("dma/read_tags", config.read_tags) {
  KVD_CHECK(config.num_links >= 1);
  for (uint32_t i = 0; i < config.num_links; i++) {
    links_.push_back(std::make_unique<PcieLink>(sim, config.link,
                                                "pcie" + std::to_string(i),
                                                /*rng_seed=*/0x5eed + i));
  }
}

PcieLink& DmaEngine::PickLink(uint64_t address) {
  // Interleave by 64 B line so both links carry equal load regardless of the
  // KVS layout (hash index low addresses, slab heap high addresses).
  const uint64_t line = address / kCacheLineBytes;
  return *links_[Mix64(line) % links_.size()];
}

uint32_t DmaEngine::NumTlps(uint32_t bytes) const {
  const uint32_t max_payload = config_.link.max_payload_bytes;
  return (bytes + max_payload - 1) / max_payload;
}

uint32_t DmaEngine::NewTlp(uint32_t transfer, uint64_t address, uint32_t bytes) {
  const uint32_t tlp = tlps_.Allocate();
  tlps_[tlp] = Tlp{transfer, bytes, 1, address, 0};
  return tlp;
}

void DmaEngine::Read(uint64_t address, uint32_t bytes, InlineCallback done,
                     bool random_access, uint64_t trace) {
  KVD_CHECK(bytes > 0);
  reads_issued_++;
  const uint32_t num_tlps = NumTlps(bytes);
  const uint32_t transfer = transfers_.Allocate();
  {
    Transfer& t = transfers_[transfer];
    t.remaining_tlps = num_tlps;
    t.random_access = random_access;
    t.trace = trace;
    t.done = std::move(done);
  }

  // Fan out TLPs; `done` fires when the last completion arrives.
  const uint32_t max_payload = config_.link.max_payload_bytes;
  uint32_t offset = 0;
  for (uint32_t i = 0; i < num_tlps; i++) {
    const uint32_t chunk = std::min(max_payload, bytes - offset);
    const uint32_t tlp = NewTlp(transfer, address + offset, chunk);
    offset += chunk;
    // Each in-flight read TLP needs a unique tag to match its completion.
    read_tags_.Acquire(1, [this, tlp] { SubmitReadTlp(tlp); });
  }
}

void DmaEngine::TraceTlp(const Tlp& tlp) {
  if (request_tracer_ == nullptr) {
    return;
  }
  const uint64_t trace = transfers_[tlp.transfer].trace;
  if (trace != 0) {
    request_tracer_->Span(trace, SpanKind::kDmaTlp, tlp.start, sim_.Now(),
                          tlp.bytes);
  }
}

void DmaEngine::SubmitReadTlp(uint32_t tlp) {
  Tlp& state = tlps_[tlp];
  state.start = sim_.Now();
  PickLink(state.address)
      .SubmitRead(state.bytes, transfers_[state.transfer].random_access,
                  [this, tlp] { OnReadTlpDone(tlp); });
}

void DmaEngine::OnReadTlpDone(uint32_t tlp) {
  Tlp& state = tlps_[tlp];
  TraceTlp(state);
  if (fault_ != nullptr && fault_->ShouldInject(FaultSite::kPcieReadCompletion)) {
    // Transient completion error: replay the TLP. The tag stays held for
    // the whole transaction, exactly as the hardware would keep it
    // allocated until a good completion arrives.
    KVD_CHECK_MSG(state.attempt < config_.max_tlp_attempts,
                  "PCIe read TLP failed after retry budget");
    read_retries_++;
    state.attempt++;
    SubmitReadTlp(tlp);
    return;
  }
  read_tags_.Release(1);
  FinishTlp(tlp);
}

void DmaEngine::FinishTlp(uint32_t tlp) {
  const uint32_t transfer = tlps_[tlp].transfer;
  tlps_.Free(tlp);
  Transfer& t = transfers_[transfer];
  if (--t.remaining_tlps == 0) {
    InlineCallback done = std::move(t.done);
    transfers_.Free(transfer);
    done();
  }
}

void DmaEngine::SubmitWriteTlp(uint32_t tlp) {
  Tlp& state = tlps_[tlp];
  state.start = sim_.Now();
  PickLink(state.address).SubmitWrite(state.bytes,
                                      [this, tlp] { OnWriteTlpDone(tlp); });
}

void DmaEngine::OnWriteTlpDone(uint32_t tlp) {
  Tlp& state = tlps_[tlp];
  TraceTlp(state);
  if (fault_ != nullptr && fault_->ShouldInject(FaultSite::kPcieWriteCompletion)) {
    KVD_CHECK_MSG(state.attempt < config_.max_tlp_attempts,
                  "PCIe write TLP failed after retry budget");
    write_retries_++;
    state.attempt++;
    SubmitWriteTlp(tlp);
    return;
  }
  FinishTlp(tlp);
}

void DmaEngine::Write(uint64_t address, uint32_t bytes, InlineCallback done,
                      uint64_t trace) {
  KVD_CHECK(bytes > 0);
  writes_issued_++;
  const uint32_t num_tlps = NumTlps(bytes);
  const uint32_t transfer = transfers_.Allocate();
  {
    Transfer& t = transfers_[transfer];
    t.remaining_tlps = num_tlps;
    t.random_access = false;
    t.trace = trace;
    t.done = std::move(done);
  }

  const uint32_t max_payload = config_.link.max_payload_bytes;
  uint32_t offset = 0;
  for (uint32_t i = 0; i < num_tlps; i++) {
    const uint32_t chunk = std::min(max_payload, bytes - offset);
    const uint32_t tlp = NewTlp(transfer, address + offset, chunk);
    offset += chunk;
    SubmitWriteTlp(tlp);
  }
}

void DmaEngine::RegisterMetrics(MetricRegistry& registry) const {
  registry.RegisterCounter("kvd_dma_reads_total", "DMA read requests", {},
                           &reads_issued_);
  registry.RegisterCounter("kvd_dma_writes_total", "DMA write requests", {},
                           &writes_issued_);
  registry.RegisterCounter("kvd_dma_retries_total",
                           "TLPs replayed after transient completion errors",
                           {{"kind", "read"}}, &read_retries_);
  registry.RegisterCounter("kvd_dma_retries_total",
                           "TLPs replayed after transient completion errors",
                           {{"kind", "write"}}, &write_retries_);
  registry.RegisterGauge("kvd_dma_read_tags_in_use", "DMA read tags currently held",
                         {}, [this] {
                           return static_cast<double>(read_tags_.capacity() -
                                                      read_tags_.available());
                         });
  registry.RegisterGauge("kvd_dma_read_tags_peak", "Peak DMA read tags held", {},
                         [this] { return static_cast<double>(read_tags_.peak_in_use()); });
  for (const auto& link : links_) {
    link->RegisterMetrics(registry);
  }
}

LatencyHistogram DmaEngine::AggregateReadLatency() const {
  LatencyHistogram out;
  for (const auto& link : links_) {
    out.Merge(link->read_latency());
  }
  return out;
}

}  // namespace kvd
