// Cluster client: shard-map caching, wrong-shard bounce recovery, and
// cross-group exactly-once (DESIGN.md §14).
//
// ClusterClient is a routing policy over the GroupClient packet engine
// (src/replica/group_client.h), the same engine ReplicatedClient runs on.
// It holds a cached copy of the coordinator's ShardMap and packs
// each flush per partition: one packet's keys all hash to one partition, and
// the packet carries the client's cached map epoch and that partition
// (GroupRequest routing extension). Routing mistakes are corrected by the
// groups themselves:
//
//   - kWrongShard: the contacted group does not own the partition (or the
//     frame's map epoch predates a split, making its label unreadable). The
//     bounce carries the current map epoch, the owning group, and the
//     partition count; the client patches its cached map (or refetches it
//     wholesale when the partition count changed — a split happened),
//     re-derives the route from the packet's own keys, and re-sends the same
//     frame sequence to the owner. If a split divided the packet's keys
//     between partitions, a read packet is re-batched under the fresh map and
//     a write packet fails as ambiguous (see Stats::split_write_aborts) —
//     even when both partitions still have the same owner.
//   - kMigrating: the partition is write-frozen for a cutover window; the
//     client backs off and re-sends. After the flip the old owner answers
//     kWrongShard and the first rule takes over.
//
// The frame sequence never changes across bounces, so the replicated session
// records — which migrations install at the destination group — answer a
// retransmission that lands after the cutover without re-executing it:
// exactly-once holds across a mid-flight ownership change.
//
// Reads go to the owning group's primary. Read-your-writes across groups:
// watermarks are (group, log index) pairs, and a packet requires the highest
// one this client holds for its whole (group, partition). When a key's
// partition has moved since the write, the watermark is dropped instead of
// carried over (indices are per-group) — safe because a cutover implies the
// write's state was installed on *every* destination replica below its log.
// That maximum is kept per (group, partition) cell, so framing a packet costs
// O(1), not a scan of every key's watermark: a write raises its cell, a key
// whose mark moves to another group marks its old cell stale (rescanned when
// a packet next asks for it), and a split rebuilds the table once.
#ifndef SRC_CLUSTER_CLUSTER_CLIENT_H_
#define SRC_CLUSTER_CLUSTER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cluster/coordinator.h"
#include "src/replica/group_client.h"

namespace kvd {

class ClusterClient : public GroupClient {
 public:
  struct Options {
    SimTime timeout = 500 * kMicrosecond;  // doubles per retransmission
    uint32_t max_attempts = 24;
    // Backoff before re-sending after a redirect, stale-read, or wrong-shard
    // bounce.
    SimTime redirect_backoff = 50 * kMicrosecond;
    // Backoff after a kMigrating bounce: the freeze window is a whole cutover
    // quiesce, so hammering at the redirect cadence only burns attempts.
    SimTime migrate_backoff = 100 * kMicrosecond;
  };

  explicit ClusterClient(ClusterCoordinator& cluster)
      : ClusterClient(cluster, Options()) {}
  ClusterClient(ClusterCoordinator& cluster, Options options);

  // Replaces the cached map with the coordinator's current one (the same
  // control-plane read a bounce-driven refetch performs).
  void RefreshMap();
  const ShardMap& cached_map() const { return map_; }

 protected:
  // The read-your-writes index a packet for `partition` (under the cached
  // map) served by `group` requires: the highest watermark this client holds
  // in `group` for a key of that partition, 0 if none. Equal to a scan of
  // watermarks(); a stale cell is recomputed by that scan.
  uint64_t RequiredIndex(uint32_t group, uint32_t partition);

 private:
  ReplicationGroup& Group(uint32_t id) override { return cluster_.group(id); }
  // Batches ops per partition under the current map; used for a flush and
  // for the post-split rebuild of a bounced read packet.
  std::vector<PacketPtr> Build(std::vector<KvOperation> ops,
                               const std::vector<size_t>& slots,
                               const std::shared_ptr<FlushState>& flush) override;
  void Route(Packet& packet) override;
  void OnWatermark(const std::vector<uint8_t>& key, const Watermark& before,
                   const Watermark& after) override;
  bool OnShardBounce(const PacketPtr& packet,
                     const GroupResponse& response) override;
  // Patches or refetches the map, then re-routes, re-batches (reads) or
  // aborts (writes) the bounced packet.
  void FollowWrongShard(const PacketPtr& packet, const GroupResponse& response);
  // Re-frames the packet's route (cached epoch, partition, required
  // watermark) around the unchanged ops payload and sequence.
  void Reframe(Packet& packet);

  struct RequiredCell {
    uint64_t index = 0;
    bool stale = false;  // a key left the cell; rescan before it is read
  };
  // The required-index cell of (group, partition): rebuilds the table first
  // when the cached map's partition count changed (a split), and grows it
  // when `group` was added since.
  RequiredCell& Cell(uint32_t group, uint32_t partition);

  ClusterCoordinator& cluster_;
  Options options_;
  ShardMap map_;  // cached; patched or refetched on bounces
  // Row-major [group][partition] over required_partitions_ partitions.
  std::vector<RequiredCell> required_;
  uint32_t required_partitions_ = 0;  // 0 until the first use builds it
};

}  // namespace kvd

#endif  // SRC_CLUSTER_CLUSTER_CLIENT_H_
