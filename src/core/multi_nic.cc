#include "src/core/multi_nic.h"

#include <algorithm>

#include "src/common/assert.h"

namespace kvd {

MultiNicServer::MultiNicServer(uint32_t num_nics, const ServerConfig& per_nic_config)
    : router_(num_nics) {
  KVD_CHECK(num_nics >= 1);
  for (uint32_t i = 0; i < num_nics; i++) {
    nics_.push_back(std::make_unique<KvDirectServer>(per_nic_config));
  }
}

uint32_t MultiNicServer::OwnerOf(std::span<const uint8_t> key) const {
  return router_.PartitionOf(key);
}

Status MultiNicServer::Load(std::span<const uint8_t> key,
                            std::span<const uint8_t> value) {
  return nics_[OwnerOf(key)]->Load(key, value);
}

KvResultMessage MultiNicServer::Execute(const KvOperation& op) {
  return nics_[OwnerOf(op.key)]->Execute(op);
}

uint64_t MultiNicServer::TotalKvs() const {
  uint64_t total = 0;
  for (const auto& nic : nics_) {
    total += nic->index().num_kvs();
  }
  return total;
}

uint64_t MultiNicServer::TotalRetired() const {
  uint64_t total = 0;
  for (const auto& nic : nics_) {
    total += nic->processor().stats().retired;
  }
  return total;
}

SimTime MultiNicServer::MaxSimTime() const {
  SimTime latest = 0;
  for (const auto& nic : nics_) {
    latest = std::max(latest, nic->simulator().Now());
  }
  return latest;
}

LatencyHistogram MultiNicServer::MergedLatency() {
  LatencyHistogram merged;
  for (const auto& nic : nics_) {
    merged.Merge(nic->processor().stats().latency_ns);
  }
  return merged;
}

MultiNicClient::MultiNicClient(MultiNicServer& cluster, Client::Options options)
    : cluster_(cluster) {
  for (uint32_t i = 0; i < cluster.num_nics(); i++) {
    clients_.push_back(std::make_unique<Client>(cluster.nic(i), options));
  }
}

Client& MultiNicClient::ClientFor(std::span<const uint8_t> key) {
  return *clients_[cluster_.OwnerOf(key)];
}

Result<std::vector<uint8_t>> MultiNicClient::Get(std::span<const uint8_t> key) {
  return ClientFor(key).Get(key);
}

Status MultiNicClient::Put(std::span<const uint8_t> key,
                           std::span<const uint8_t> value) {
  return ClientFor(key).Put(key, value);
}

Status MultiNicClient::Delete(std::span<const uint8_t> key) {
  return ClientFor(key).Delete(key);
}

Result<uint64_t> MultiNicClient::Update(std::span<const uint8_t> key, uint64_t param,
                                        uint16_t function_id, uint8_t element_width) {
  return ClientFor(key).Update(key, param, function_id, element_width);
}

size_t MultiNicClient::Enqueue(KvOperation op) {
  pending_.push_back(std::move(op));
  return pending_.size() - 1;
}

std::vector<KvResultMessage> MultiNicClient::Flush() {
  std::vector<KvOperation> ops = std::move(pending_);
  pending_.clear();
  // Partition by owner, remembering each op's original position.
  std::vector<std::vector<size_t>> positions(clients_.size());
  for (size_t i = 0; i < ops.size(); i++) {
    const uint32_t owner = cluster_.OwnerOf(ops[i].key);
    positions[owner].push_back(i);
    clients_[owner]->Enqueue(std::move(ops[i]));
  }
  // Flush every NIC; each runs its own simulator (parallel hardware).
  std::vector<KvResultMessage> results(ops.size());
  for (uint32_t nic = 0; nic < clients_.size(); nic++) {
    std::vector<KvResultMessage> partial = clients_[nic]->Flush();
    KVD_CHECK(partial.size() == positions[nic].size());
    for (size_t i = 0; i < partial.size(); i++) {
      results[positions[nic][i]] = std::move(partial[i]);
    }
  }
  return results;
}

ReliableSender::Stats MultiNicClient::endpoint_stats() const {
  ReliableSender::Stats total;
  for (const auto& client : clients_) {
    const ReliableSender::Stats& nic = client->stats();
    total.packets_sent += nic.packets_sent;
    total.retransmits += nic.retransmits;
    total.busy_retries += nic.busy_retries;
    total.corrupt_responses += nic.corrupt_responses;
    total.duplicate_responses += nic.duplicate_responses;
  }
  return total;
}

}  // namespace kvd
