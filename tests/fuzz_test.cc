// Seeded mutation fuzzer over the wire decoders (ctest -L fuzz).
//
// The frame parser and the replica, group and result decoders read straight
// out of the received packet (they take views, not copies), so an over-read
// past a view's end would read the neighbouring bytes instead of faulting.
// Every decoder is driven from a corpus of valid encodings through three
// kinds of input:
//
//   - single-bit flips (every bit of a short input, a seeded sample of a
//     long one): nothing may crash, and a checksummed frame must reject
//     every flip;
//   - truncation at every prefix, both in place (a view over the original
//     buffer, so an over-read would find the real bytes and wrongly accept)
//     and as an exact-size copy (so the sanitizer sweeps see an over-read):
//     a cut inside a length-delimited encoding must be rejected, and a cut
//     in an open-ended tail (a group request's ops, a group response's
//     results) must yield exactly the bytes before the cut;
//   - the valid input placed at an offset inside a larger buffer of random
//     bytes: decoding the view must give what decoding an exact copy gives.
//
// Deterministic: one fixed seed, well under a second unsanitized.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/common/random.h"
#include "src/net/wire_format.h"
#include "src/replica/replica_wire.h"
#include "src/transport/frame.h"

namespace kvd {
namespace {

using Bytes = std::vector<uint8_t>;

Bytes Fill(size_t n, uint8_t seed) {
  Bytes out(n);
  for (size_t i = 0; i < n; i++) {
    out[i] = static_cast<uint8_t>(seed + 31 * i);
  }
  return out;
}

KvResultMessage MakeResult(ResultCode code, size_t value_bytes, uint64_t scalar) {
  KvResultMessage result;
  result.code = code;
  result.value = Fill(value_bytes, static_cast<uint8_t>(scalar));
  result.scalar = scalar;
  return result;
}

LogEntry Entry(uint64_t i) {
  LogEntry entry;
  entry.epoch = 3 + i / 4;
  entry.client_sequence = i == 2 ? 0 : (5ull << 40) + i;  // 2: a barrier
  entry.slot = static_cast<uint16_t>(i);
  entry.op.opcode = i == 3 ? Opcode::kDelete : Opcode::kPut;
  entry.op.key = Fill(8, static_cast<uint8_t>(i));
  if (i != 3) {
    entry.op.value = Fill(4 + 9 * i % 40, static_cast<uint8_t>(100 + i));
  }
  entry.result = MakeResult(ResultCode::kOk, i == 1 ? 16 : 0, i);
  return entry;
}

std::vector<Bytes> ReplicaCorpus() {
  std::vector<Bytes> corpus;
  ReplicaMessage append;
  append.type = ReplicaMessageType::kAppend;
  append.epoch = 7;
  append.sender = 1;
  append.first_index = 40;
  append.prev_epoch = 6;
  append.commit_index = 39;
  append.leader_end = 45;
  corpus.push_back(EncodeReplicaMessage(append));  // heartbeat
  for (uint64_t i = 0; i < 64; i++) {
    append.entries.push_back(Entry(i));
    if (i == 5 || i == 63) {  // a short window and a full one
      corpus.push_back(EncodeReplicaMessage(append));
    }
  }

  ReplicaMessage small;
  small.epoch = 9;
  small.sender = 2;
  small.ack_index = 77;
  small.new_epoch = 10;
  small.last_epoch = 8;
  small.last_index = 66;
  small.granted = true;
  for (const ReplicaMessageType type :
       {ReplicaMessageType::kAppendAck, ReplicaMessageType::kPromoteQuery,
        ReplicaMessageType::kPromoteReply, ReplicaMessageType::kPromote,
        ReplicaMessageType::kCatchupRequest}) {
    small.type = type;
    corpus.push_back(EncodeReplicaMessage(small));
  }

  ReplicaMessage chunk;
  chunk.type = ReplicaMessageType::kStateChunk;
  chunk.epoch = 4;
  chunk.snapshot_epoch = 3;
  chunk.snapshot_index = 120;
  chunk.chunk_seq = 2;
  for (uint8_t i = 0; i < 4; i++) {
    chunk.kvs.emplace_back(Fill(8, i), Fill(12 * i, i));
  }
  corpus.push_back(EncodeReplicaMessage(chunk));  // migration copy shape
  chunk.chunk_flags = kStateChunkFirst | kStateChunkLast | kStateChunkSessions;
  chunk.sessions.push_back({11, 0, MakeResult(ResultCode::kOk, 0, 1)});
  chunk.sessions.push_back({11, 3, MakeResult(ResultCode::kNotFound, 24, 2)});
  corpus.push_back(EncodeReplicaMessage(chunk));
  return corpus;
}

std::vector<KvResultMessage> ResultList() {
  return {MakeResult(ResultCode::kOk, 0, 1), MakeResult(ResultCode::kOk, 40, 2),
          MakeResult(ResultCode::kNotFound, 0, 3), MakeResult(ResultCode::kOk, 7, 4)};
}

Bytes OpsPayload() {
  PacketBuilder builder;
  for (uint8_t i = 0; i < 4; i++) {
    KvOperation op;
    op.opcode = i % 2 == 0 ? Opcode::kPut : Opcode::kGet;
    op.key = Fill(8, i);
    op.value = i % 2 == 0 ? Fill(20, i) : Bytes{};
    EXPECT_TRUE(builder.Add(op));
  }
  return builder.Finish();
}

std::vector<GroupRequest> GroupRequests() {
  GroupRequest plain;
  plain.required_index = 123;
  plain.ops_payload = OpsPayload();
  GroupRequest routed = plain;
  routed.has_route = true;
  routed.map_epoch = 5;
  routed.partition = 17;
  GroupRequest empty;
  return {plain, routed, empty};
}

std::vector<GroupResponse> GroupResponses() {
  GroupResponse ok;
  ok.epoch = 3;
  ok.primary_id = 1;
  ok.assigned_index = 88;
  ok.results_payload = EncodeResults(ResultList());
  GroupResponse bounce;
  bounce.flags = kGroupWrongShard;
  bounce.epoch = 3;
  bounce.map_epoch = 6;
  bounce.owner_group = 2;
  bounce.num_partitions = 64;
  bounce.results_payload = EncodeResults({MakeResult(ResultCode::kWrongShard, 0, 0)});
  GroupResponse redirect;
  redirect.flags = kGroupRedirect;
  redirect.primary_id = 2;
  return {ok, bounce, redirect};
}

// `input` with one bit flipped at a time: every bit of a short input, a
// seeded sample of a long one.
void ForEachBitFlip(const Bytes& input, Rng& rng,
                    const std::function<void(const Bytes&)>& check) {
  constexpr size_t kMaxFlips = 1024;
  const size_t bits = input.size() * 8;
  Bytes mutated = input;
  for (size_t n = 0; n < std::min(bits, kMaxFlips); n++) {
    const size_t bit = bits <= kMaxFlips ? n : rng.NextBelow(bits);
    mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    check(mutated);
    mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

// Each strict prefix of `input`, first as a view over `input` itself (the
// cut-off bytes still follow in memory), then as an exact-size copy.
void ForEachPrefix(
    const Bytes& input,
    const std::function<void(std::span<const uint8_t>, size_t)>& check) {
  for (size_t len = 0; len < input.size(); len++) {
    check(std::span<const uint8_t>(input.data(), len), len);
    const Bytes copy(input.begin(), input.begin() + static_cast<long>(len));
    check(copy, len);
  }
}

// `input` at a random offset inside a larger buffer of random bytes.
template <typename Decode>
void CheckInsideLargerBuffer(const Bytes& input, Rng& rng, Decode decode) {
  for (int trial = 0; trial < 8; trial++) {
    const size_t before = rng.NextBelow(64);
    Bytes buffer(before + input.size() + 1 + rng.NextBelow(64));
    for (uint8_t& byte : buffer) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    std::copy(input.begin(), input.end(), buffer.begin() + static_cast<long>(before));
    decode(std::span<const uint8_t>(buffer).subspan(before, input.size()));
  }
}

TEST(DecoderFuzzTest, ReplicaMessages) {
  Rng rng(0x5eed0001);
  for (const Bytes& input : ReplicaCorpus()) {
    ASSERT_TRUE(DecodeReplicaMessage(input).ok());
    ForEachBitFlip(input, rng, [](const Bytes& mutated) {
      Result<ReplicaMessage> decoded = DecodeReplicaMessage(mutated);
      if (decoded.ok()) {
        // Whatever was accepted must re-encode without tripping anything.
        (void)EncodeReplicaMessage(decoded.value());
      }
    });
    ForEachPrefix(input, [&](std::span<const uint8_t> prefix, size_t len) {
      EXPECT_FALSE(DecodeReplicaMessage(prefix).ok())
          << "accepted a cut at " << len << " of " << input.size();
    });
    CheckInsideLargerBuffer(input, rng, [&](std::span<const uint8_t> view) {
      Result<ReplicaMessage> decoded = DecodeReplicaMessage(view);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(EncodeReplicaMessage(decoded.value()), input);
    });
  }
}

TEST(DecoderFuzzTest, Frames) {
  Rng rng(0x5eed0002);
  std::vector<Bytes> payloads = ReplicaCorpus();
  payloads.push_back({});
  payloads.push_back(EncodeResults(ResultList()));
  for (size_t i = 0; i < payloads.size(); i++) {
    const uint64_t sequence = (3ull << 40) + i;
    const Bytes input = FramePacket(sequence, payloads[i]);
    ForEachBitFlip(input, rng, [&](const Bytes& mutated) {
      EXPECT_FALSE(ParseFrame(mutated).ok()) << "frame " << i;
    });
    ForEachPrefix(input, [&](std::span<const uint8_t> prefix, size_t len) {
      EXPECT_FALSE(ParseFrame(prefix).ok())
          << "frame " << i << " accepted a cut at " << len;
    });
    CheckInsideLargerBuffer(input, rng, [&](std::span<const uint8_t> view) {
      Result<Frame> frame = ParseFrame(view);
      ASSERT_TRUE(frame.ok());
      EXPECT_EQ(frame->sequence, sequence);
      // The payload is a view into the packet, not a copy.
      EXPECT_EQ(frame->payload.data(), view.data() + kFrameHeaderBytes);
      EXPECT_EQ(Bytes(frame->payload.begin(), frame->payload.end()), payloads[i]);
    });
  }
}

TEST(DecoderFuzzTest, Results) {
  Rng rng(0x5eed0003);
  const std::vector<KvResultMessage> results = ResultList();
  const Bytes input = EncodeResults(results);
  // Result boundaries: a cut exactly there is a shorter, valid list.
  std::vector<size_t> boundaries{0};
  for (const KvResultMessage& r : results) {
    boundaries.push_back(boundaries.back() + kResultHeaderBytes + r.value.size());
  }
  ForEachBitFlip(input, rng, [](const Bytes& mutated) {
    (void)DecodeResults(mutated);
  });
  ForEachPrefix(input, [&](std::span<const uint8_t> prefix, size_t len) {
    Result<std::vector<KvResultMessage>> decoded = DecodeResults(prefix);
    const auto at = std::find(boundaries.begin(), boundaries.end(), len);
    if (at == boundaries.end()) {
      EXPECT_FALSE(decoded.ok()) << "accepted a cut at " << len;
      return;
    }
    ASSERT_TRUE(decoded.ok()) << "rejected the boundary at " << len;
    const std::vector<KvResultMessage> expect(
        results.begin(), results.begin() + (at - boundaries.begin()));
    EXPECT_EQ(EncodeResults(decoded.value()), EncodeResults(expect));
  });
  CheckInsideLargerBuffer(input, rng, [&](std::span<const uint8_t> view) {
    Result<std::vector<KvResultMessage>> decoded = DecodeResults(view);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(EncodeResults(decoded.value()), input);
  });
}

TEST(DecoderFuzzTest, GroupRequests) {
  Rng rng(0x5eed0004);
  for (const GroupRequest& request : GroupRequests()) {
    const Bytes input = EncodeGroupRequest(request);
    const size_t header = input.size() - request.ops_payload.size();
    ForEachBitFlip(input, rng, [](const Bytes& mutated) {
      (void)DecodeGroupRequest(mutated);
    });
    ForEachPrefix(input, [&](std::span<const uint8_t> prefix, size_t len) {
      Result<GroupRequest> decoded = DecodeGroupRequest(prefix);
      if (len < header) {
        EXPECT_FALSE(decoded.ok()) << "accepted a header cut at " << len;
        return;
      }
      // The ops are the open-ended tail: the cut keeps exactly its prefix.
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded->ops_payload,
                Bytes(request.ops_payload.begin(),
                      request.ops_payload.begin() + static_cast<long>(len - header)));
    });
    CheckInsideLargerBuffer(input, rng, [&](std::span<const uint8_t> view) {
      Result<GroupRequest> decoded = DecodeGroupRequest(view);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(EncodeGroupRequest(decoded.value()), input);
    });
  }
}

TEST(DecoderFuzzTest, GroupResponses) {
  Rng rng(0x5eed0005);
  for (const GroupResponse& response : GroupResponses()) {
    const Bytes input = EncodeGroupResponse(response);
    const size_t header = input.size() - response.results_payload.size();
    ForEachBitFlip(input, rng, [](const Bytes& mutated) {
      Result<GroupResponse> decoded = DecodeGroupResponse(mutated);
      if (decoded.ok()) {
        (void)DecodeResults(decoded->results_payload);
      }
    });
    ForEachPrefix(input, [&](std::span<const uint8_t> prefix, size_t len) {
      Result<GroupResponse> decoded = DecodeGroupResponse(prefix);
      if (len < header) {
        EXPECT_FALSE(decoded.ok()) << "accepted a header cut at " << len;
        return;
      }
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded->results_payload,
                Bytes(response.results_payload.begin(),
                      response.results_payload.begin() +
                          static_cast<long>(len - header)));
    });
    CheckInsideLargerBuffer(input, rng, [&](std::span<const uint8_t> view) {
      Result<GroupResponse> decoded = DecodeGroupResponse(view);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(EncodeGroupResponse(decoded.value()), input);
    });
  }
}

}  // namespace
}  // namespace kvd
