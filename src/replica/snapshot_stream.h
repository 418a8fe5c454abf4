// The snapshot stream (DESIGN.md §9, §14): the one cut, chunker and pacer
// that replica state transfer and shard-migration copy share. The receive
// rules stay with the owners: a resync target has no ack path, while a
// migration destination acks cumulatively and the coordinator rewinds.
#ifndef SRC_REPLICA_SNAPSHOT_STREAM_H_
#define SRC_REPLICA_SNAPSHOT_STREAM_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/key_router.h"
#include "src/core/kv_direct.h"
#include "src/replica/replica_wire.h"

namespace kvd {

using SnapshotKv = std::pair<std::vector<uint8_t>, std::vector<uint8_t>>;

// The keys stored on `server`, listed from its hash index, in byte order;
// with a router, only those it maps to `partition`.
std::vector<std::vector<uint8_t>> SortedKeys(KvDirectServer& server,
                                             const KeyRouter* router = nullptr,
                                             uint32_t partition = 0);

struct SnapshotChunk {
  std::vector<uint8_t> bytes;  // sent as is; the pacer charges bytes.size()
  uint32_t kvs = 0;
};

class SnapshotStream {
 public:
  // The cut: the KVs stored on `server`, in key order; with a router, only
  // those it maps to `partition`.
  static std::vector<SnapshotKv> Cut(KvDirectServer& server,
                                     const KeyRouter* router = nullptr,
                                     uint32_t partition = 0);

  struct Header {
    uint64_t epoch = 0;
    uint32_t sender = 0;
    uint64_t snapshot_epoch = 0;
    uint64_t snapshot_index = 0;
    // Replica resync flags its first and last chunk and is never empty;
    // migration copy is bounded by its chunk count instead.
    bool delimited = false;
  };
  // The only builder of kStateChunk messages: `kvs` and `sessions` in
  // order, at most `chunk_kvs` of each per chunk, each message encoded once.
  static std::vector<SnapshotChunk> Pack(const Header& header,
                                         std::vector<SnapshotKv> kvs,
                                         std::vector<SessionRecord> sessions,
                                         uint32_t chunk_kvs);

  // Awaiting acks, the stream keeps its last chunk's pace slot and stays
  // open for Rewind until closed; without, it closes as that chunk leaves.
  SnapshotStream(Simulator& sim, double bytes_per_sec, bool await_acks)
      : sim_(sim), bytes_per_sec_(bytes_per_sec), await_acks_(await_acks) {}
  ~SnapshotStream() { *alive_ = false; }
  SnapshotStream(const SnapshotStream&) = delete;
  SnapshotStream& operator=(const SnapshotStream&) = delete;

  // Open claims the stream for `destination` before its chunks exist (a
  // replica cut waits for its pipeline to drain). Open and Close leave any
  // pending pace event inert, so a replaced transfer sends nothing more.
  void Open(uint32_t destination);
  void Close();
  // Sends chunk 0 now and each later chunk one pace slot after the last.
  void Start(std::vector<SnapshotChunk> chunks,
             std::function<void(const SnapshotChunk&)> send);
  // Go-back-N: chunk `to` leaves next, in the pending pace slot or now.
  void Rewind(uint32_t to);

  bool open() const { return open_; }
  bool SendingTo(uint32_t destination) const {
    return open_ && destination_ == destination;
  }
  uint32_t destination() const { return destination_; }
  uint32_t next() const { return next_; }
  size_t size() const { return chunks_.size(); }
  // max(1, bytes / rate): the gap after a chunk of `bytes`.
  SimTime PaceFor(size_t bytes) const;

 private:
  void SendNext();

  Simulator& sim_;
  double bytes_per_sec_;
  bool await_acks_;
  bool open_ = false;
  uint32_t destination_ = 0;
  std::vector<SnapshotChunk> chunks_;
  std::function<void(const SnapshotChunk&)> send_;
  uint32_t next_ = 0;
  bool pacing_ = false;      // a pace event is pending
  uint64_t generation_ = 0;  // bumped by Open and Close
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace kvd

#endif  // SRC_REPLICA_SNAPSHOT_STREAM_H_
