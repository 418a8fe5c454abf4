#include "src/replica/snapshot_stream.h"

#include <algorithm>
#include <iterator>

#include "src/common/assert.h"

namespace kvd {
namespace {

// Moves up to `n` items of `from`, starting at `first`, into `to`.
template <typename T>
void MoveSlice(std::vector<T>& from, size_t first, size_t n, std::vector<T>& to) {
  first = std::min(first, from.size());
  const size_t last = std::min(from.size(), first + n);
  to.assign(std::make_move_iterator(from.begin() + static_cast<long>(first)),
            std::make_move_iterator(from.begin() + static_cast<long>(last)));
}

}  // namespace

std::vector<std::vector<uint8_t>> SortedKeys(KvDirectServer& server,
                                             const KeyRouter* router,
                                             uint32_t partition) {
  std::vector<std::vector<uint8_t>> keys =
      server.index().Keys(server.runtime().memory());
  if (router != nullptr) {
    std::erase_if(keys, [&](const std::vector<uint8_t>& key) {
      return router->PartitionOf(key) != partition;
    });
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<SnapshotKv> SnapshotStream::Cut(KvDirectServer& server,
                                            const KeyRouter* router,
                                            uint32_t partition) {
  std::vector<SnapshotKv> kvs;
  for (std::vector<uint8_t>& key : SortedKeys(server, router, partition)) {
    std::vector<uint8_t> value;
    KVD_CHECK_MSG(server.index().Get(key, value).ok(), "a listed key must read back");
    kvs.emplace_back(std::move(key), std::move(value));
  }
  return kvs;
}

std::vector<SnapshotChunk> SnapshotStream::Pack(
    const Header& header, std::vector<SnapshotKv> kvs,
    std::vector<SessionRecord> sessions, uint32_t chunk_kvs) {
  KVD_CHECK(chunk_kvs >= 1);
  // A delimited snapshot needs a chunk to carry its last-chunk flag.
  const size_t count =
      (std::max<size_t>({kvs.size(), sessions.size(), header.delimited ? 1u : 0u}) +
       chunk_kvs - 1) / chunk_kvs;
  ReplicaMessage msg;
  msg.type = ReplicaMessageType::kStateChunk;
  msg.epoch = header.epoch;
  msg.sender = header.sender;
  msg.snapshot_epoch = header.snapshot_epoch;
  msg.snapshot_index = header.snapshot_index;
  std::vector<SnapshotChunk> chunks;
  for (size_t i = 0; i < count; i++) {
    MoveSlice(kvs, i * chunk_kvs, chunk_kvs, msg.kvs);
    MoveSlice(sessions, i * chunk_kvs, chunk_kvs, msg.sessions);
    msg.chunk_seq = static_cast<uint32_t>(i);
    msg.chunk_flags = msg.sessions.empty() ? 0 : kStateChunkSessions;
    if (header.delimited) {
      msg.chunk_flags |= (i == 0 ? kStateChunkFirst : 0) |
                         (i + 1 == count ? kStateChunkLast : 0);
    }
    chunks.push_back({EncodeReplicaMessage(msg),
                      static_cast<uint32_t>(msg.kvs.size())});
  }
  return chunks;
}

void SnapshotStream::Open(uint32_t destination) {
  Close();
  open_ = true;
  destination_ = destination;
}

void SnapshotStream::Close() {
  open_ = false;
  pacing_ = false;
  generation_++;
  chunks_.clear();
  send_ = nullptr;
  next_ = 0;
}

void SnapshotStream::Start(std::vector<SnapshotChunk> chunks,
                           std::function<void(const SnapshotChunk&)> send) {
  KVD_CHECK_MSG(open_, "a snapshot stream starts only once opened");
  chunks_ = std::move(chunks);
  send_ = std::move(send);
  next_ = 0;
  SendNext();
}

void SnapshotStream::Rewind(uint32_t to) {
  KVD_CHECK(to <= chunks_.size());
  next_ = to;
  SendNext();
}

SimTime SnapshotStream::PaceFor(size_t bytes) const {
  return std::max<SimTime>(
      1, static_cast<SimTime>(static_cast<double>(bytes) / bytes_per_sec_ *
                              kSecond));
}

void SnapshotStream::SendNext() {
  if (!open_ || pacing_ || next_ >= chunks_.size()) {
    return;
  }
  const SnapshotChunk& chunk = chunks_[next_++];
  const SimTime pace = PaceFor(chunk.bytes.size());
  const uint64_t generation = generation_;
  send_(chunk);
  if (generation != generation_) {
    return;  // the send itself closed or replaced the transfer
  }
  if (!await_acks_ && next_ == chunks_.size()) {
    Close();
    return;
  }
  pacing_ = true;
  std::shared_ptr<bool> alive = alive_;
  sim_.ScheduleAt(sim_.Now() + pace, [this, alive, generation] {
    if (*alive && generation == generation_) {
      pacing_ = false;
      SendNext();
    }
  });
}

}  // namespace kvd
