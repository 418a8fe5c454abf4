#include "src/cluster/cluster_client.h"

#include <algorithm>
#include <map>
#include <utility>

namespace kvd {

ClusterClient::ClusterClient(ClusterCoordinator& cluster, Options options)
    : GroupClient(cluster.simulator(), cluster.request_tracer(),
                  cluster.AcquireClientSequenceBase(),
                  // Ops stay untraced: the coordinator's tracer follows
                  // migrations, not client traffic.
                  Config{.timeout = options.timeout,
                         .max_attempts = options.max_attempts,
                         .attempts_per_target = 3,
                         .replicas = cluster.config().group.num_replicas,
                         .redirect_backoff = options.redirect_backoff,
                         .trace_ops = false}),
      cluster_(cluster),
      options_(options),
      map_(cluster.FetchShardMap()) {
  stats_.map_refetches++;  // the constructor's initial fetch
}

void ClusterClient::RefreshMap() {
  map_ = cluster_.FetchShardMap();
  stats_.map_refetches++;
}

std::vector<GroupClient::PacketPtr> ClusterClient::Build(
    std::vector<KvOperation> ops, const std::vector<size_t>& slots,
    const std::shared_ptr<FlushState>& flush) {
  // One packet's keys all hash to one partition under the cached map, so a
  // whole packet routes (and bounces) as a unit. std::map keeps partition
  // iteration deterministic.
  struct Batch {
    std::vector<KvOperation> ops;
    std::vector<size_t> slots;
  };
  const KeyRouter router = map_.router();
  std::map<uint32_t, Batch> by_partition;
  for (size_t i = 0; i < ops.size(); i++) {
    Batch& batch = by_partition[router.PartitionOf(ops[i].key)];
    batch.ops.push_back(std::move(ops[i]));
    batch.slots.push_back(slots[i]);
  }
  std::vector<PacketPtr> packets;
  for (auto& [partition, batch] : by_partition) {
    for (PacketPtr& packet : Pack(std::move(batch.ops), batch.slots, flush)) {
      packet->partition = partition;
      packets.push_back(std::move(packet));
    }
  }
  return packets;
}

void ClusterClient::Route(Packet& packet) {
  packet.group = map_.OwnerOf(packet.partition);
  Reframe(packet);
  packet.target = packet.is_write ? BelievedPrimary(packet.group)
                                  : cluster_.group(packet.group).primary_id();
}

void ClusterClient::Reframe(Packet& packet) {
  // Read-your-writes: the serving group must have applied the highest index
  // this client's acked writes reached *there*. Watermarks from a previous
  // owner are dropped — their indices mean nothing in the new group's log,
  // and the cutover installed the write's state on every destination replica.
  Frame(packet, RequiredIndex(packet.group, packet.partition), map_.epoch);
}

uint64_t ClusterClient::RequiredIndex(uint32_t group, uint32_t partition) {
  RequiredCell& cell = Cell(group, partition);
  if (cell.stale) {
    cell.index = 0;
    const KeyRouter router = map_.router();
    for (const auto& [key, mark] : watermarks()) {
      if (mark.group == group && router.PartitionOf(key) == partition) {
        cell.index = std::max(cell.index, mark.index);
      }
    }
    cell.stale = false;
  }
  return cell.index;
}

void ClusterClient::OnWatermark(const std::vector<uint8_t>& key,
                                const Watermark& before,
                                const Watermark& after) {
  const uint32_t partition = map_.router().PartitionOf(key);
  RequiredCell& raised = Cell(after.group, partition);
  raised.index = std::max(raised.index, after.index);
  // Within a group a mark only rises. Moving to another group (after a
  // migration) is the one way a key leaves its cell, and only a non-zero
  // mark can have been that cell's maximum.
  if (before.group != after.group && before.index != 0) {
    Cell(before.group, partition).stale = true;
  }
}

ClusterClient::RequiredCell& ClusterClient::Cell(uint32_t group,
                                                 uint32_t partition) {
  const uint32_t partitions = map_.num_partitions();
  if (partitions != required_partitions_) {
    // A split relabels every key: rebuild from the watermarks, once.
    required_partitions_ = partitions;
    required_.assign(size_t{cluster_.num_groups()} * partitions, RequiredCell{});
    const KeyRouter router = map_.router();
    for (const auto& [key, mark] : watermarks()) {
      RequiredCell& cell = Cell(mark.group, router.PartitionOf(key));
      cell.index = std::max(cell.index, mark.index);
    }
  }
  const size_t index = size_t{group} * partitions + partition;
  if (index >= required_.size()) {
    required_.resize(size_t{group + 1} * partitions);  // a group was added
  }
  return required_[index];
}

bool ClusterClient::OnShardBounce(const PacketPtr& packet,
                                  const GroupResponse& response) {
  if ((response.flags & kGroupWrongShard) != 0) {
    FollowWrongShard(packet, response);
    return true;
  }
  if ((response.flags & kGroupMigrating) != 0) {
    // Write-frozen for a cutover window. Same frame, same group: either the
    // freeze lifts (migration aborted — not modeled) or the flip lands and
    // the next attempt bounces kWrongShard into FollowWrongShard.
    stats_.migrating_backoffs++;
    BackoffResend(packet, options_.migrate_backoff, kGroupMigrating);
    return true;
  }
  return false;
}

void ClusterClient::FollowWrongShard(const PacketPtr& packet,
                                     const GroupResponse& response) {
  stats_.wrong_shard_bounces++;
  if (response.num_partitions != map_.num_partitions()) {
    // The map's granularity changed under us (a split): patching one entry
    // cannot reconcile it; refetch wholesale.
    RefreshMap();
  } else if (response.map_epoch > map_.epoch) {
    // Patch just the bounced entry: one migration moved one partition.
    map_.epoch = response.map_epoch;
    if (packet->partition < map_.owners.size() &&
        response.owner_group < cluster_.num_groups()) {
      map_.owners[packet->partition] = response.owner_group;
    }
    stats_.map_patches++;
  }
  // Re-derive the route from the packet's own keys under the current map: a
  // label framed before a split was computed with the old modulus and means
  // nothing now (the gates refuse such frames outright).
  const KeyRouter router = map_.router();
  bool straddles = false;
  packet->partition = router.PartitionOf(packet->ops.front().key);
  for (const KvOperation& op : packet->ops) {
    straddles = straddles || router.PartitionOf(op.key) != packet->partition;
  }
  if (straddles) {
    // A pre-split packet holds keys from both halves of its old partition,
    // so no single route serves it. The gate refused the frame wholesale —
    // nothing in it executed *here* — so reads re-batch safely under the
    // fresh map with new sequences. Writes cannot: an earlier attempt may
    // have executed before the split, and new sequences would forfeit the
    // replay protection tied to the original frame — fail them as
    // ambiguous, exactly like an exhausted retransmission timer.
    if (packet->is_write) {
      stats_.split_write_aborts++;
      Abort(packet);
      return;
    }
    stats_.split_rebuilds++;
    packet->completed = true;  // stop the old frame's retransmission timer
    std::vector<PacketPtr> packets =
        Build(std::move(packet->ops), packet->op_indices, packet->flush);
    packet->flush->outstanding += packets.size() - 1;
    for (const PacketPtr& rebuilt : packets) {
      Send(rebuilt);
    }
    return;
  }
  packet->group = map_.OwnerOf(packet->partition);
  Reframe(*packet);
  Retarget(packet, packet->is_write
                       ? cluster_.group(packet->group).primary_id()
                       : packet->target + 1);
  BackoffResend(packet, options_.redirect_backoff, kGroupWrongShard);
}

}  // namespace kvd
