#include "src/replica/replica_wire.h"

#include <algorithm>
#include <cstring>

namespace kvd {
namespace {

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  const size_t at = out.size();
  out.resize(at + 2);
  std::memcpy(out.data() + at, &v, 2);
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  const size_t at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &v, 4);
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  const size_t at = out.size();
  out.resize(at + 8);
  std::memcpy(out.data() + at, &v, 8);
}

void PutBytes(std::vector<uint8_t>& out, std::span<const uint8_t> bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

// Bounds-checked little-endian reader over a view; every take reports
// truncation and nothing is read past the view's end.
struct Reader {
  std::span<const uint8_t> in;
  size_t offset = 0;

  bool Take(void* out, size_t n) {
    if (n > in.size() - offset) {
      return false;
    }
    std::memcpy(out, in.data() + offset, n);
    offset += n;
    return true;
  }
  bool TakeBytes(std::vector<uint8_t>& out, size_t n) {
    if (n > in.size() - offset) {
      return false;
    }
    const std::span<const uint8_t> bytes = in.subspan(offset, n);
    out.assign(bytes.begin(), bytes.end());
    offset += n;
    return true;
  }
  std::span<const uint8_t> Rest() const { return in.subspan(offset); }
  bool Done() const { return offset == in.size(); }
};

constexpr size_t kMessageHeaderBytes = 1 + 8 + 4;  // type | epoch | sender
constexpr size_t kResultFixedBytes = 1 + 8 + 4;    // code | scalar | length

size_t ResultBytes(const KvResultMessage& result) {
  return kResultFixedBytes + result.value.size();
}

void EncodeResult(std::vector<uint8_t>& out, const KvResultMessage& result) {
  out.push_back(static_cast<uint8_t>(result.code));
  PutU64(out, result.scalar);
  PutU32(out, static_cast<uint32_t>(result.value.size()));
  PutBytes(out, result.value);
}

bool DecodeResult(Reader& reader, KvResultMessage& result) {
  uint8_t code_byte;
  uint32_t len;
  if (!reader.Take(&code_byte, 1) || !reader.Take(&result.scalar, 8) ||
      !reader.Take(&len, 4) || code_byte > kMaxResultCodeByte) {
    return false;
  }
  result.code = static_cast<ResultCode>(code_byte);
  return reader.TakeBytes(result.value, len);
}

// epoch | client_sequence | slot | opcode | element_width | return_value |
// function_id | param | key_len | value_len
constexpr size_t kEntryFixedBytes = 8 + 8 + 2 + 1 + 1 + 1 + 2 + 8 + 2 + 4;

bool DecodeEntry(Reader& reader, LogEntry& entry) {
  uint8_t opcode_byte, return_value;
  uint16_t key_len;
  uint32_t value_len;
  if (!reader.Take(&entry.epoch, 8) || !reader.Take(&entry.client_sequence, 8) ||
      !reader.Take(&entry.slot, 2) || !reader.Take(&opcode_byte, 1) ||
      !reader.Take(&entry.op.element_width, 1) || !reader.Take(&return_value, 1) ||
      !reader.Take(&entry.op.function_id, 2) || !reader.Take(&entry.op.param, 8) ||
      !reader.Take(&key_len, 2) || !reader.Take(&value_len, 4)) {
    return false;
  }
  if (opcode_byte > kMaxOpcodeByte) {
    return false;
  }
  entry.op.opcode = static_cast<Opcode>(opcode_byte);
  entry.op.return_value = return_value != 0;
  return reader.TakeBytes(entry.op.key, key_len) &&
         reader.TakeBytes(entry.op.value, value_len) &&
         DecodeResult(reader, entry.result);
}

// The exact encoded size of `msg`, so an encoder allocates once.
size_t ReplicaMessageBytes(const ReplicaMessage& msg) {
  switch (msg.type) {
    case ReplicaMessageType::kAppend: {
      size_t bytes = kAppendHeaderBytes;
      for (const LogEntry& entry : msg.entries) {
        bytes += LogEntryBytes(entry);
      }
      return bytes;
    }
    case ReplicaMessageType::kAppendAck:
    case ReplicaMessageType::kPromoteQuery:
    case ReplicaMessageType::kPromote:
      return kMessageHeaderBytes + 8;
    case ReplicaMessageType::kPromoteReply:
      return kMessageHeaderBytes + 8 + 8 + 8 + 1;
    case ReplicaMessageType::kCatchupRequest:
      return kMessageHeaderBytes + 8 + 8;
    case ReplicaMessageType::kStateChunk: {
      size_t bytes = kMessageHeaderBytes + 8 + 8 + 4 + 1 + 4;
      for (const auto& [key, value] : msg.kvs) {
        bytes += 2 + 4 + key.size() + value.size();
      }
      if ((msg.chunk_flags & kStateChunkSessions) != 0) {
        bytes += 4;
        for (const SessionRecord& record : msg.sessions) {
          bytes += 8 + 2 + ResultBytes(record.result);
        }
      }
      return bytes;
    }
  }
  return kMessageHeaderBytes;
}

}  // namespace

size_t LogEntryBytes(const LogEntry& entry) {
  return kEntryFixedBytes + entry.op.key.size() + entry.op.value.size() +
         ResultBytes(entry.result);
}

void EncodeLogEntry(std::vector<uint8_t>& out, const LogEntry& entry) {
  PutU64(out, entry.epoch);
  PutU64(out, entry.client_sequence);
  PutU16(out, entry.slot);
  out.push_back(static_cast<uint8_t>(entry.op.opcode));
  out.push_back(entry.op.element_width);
  out.push_back(entry.op.return_value ? 1 : 0);
  PutU16(out, entry.op.function_id);
  PutU64(out, entry.op.param);
  PutU16(out, static_cast<uint16_t>(entry.op.key.size()));
  PutU32(out, static_cast<uint32_t>(entry.op.value.size()));
  PutBytes(out, entry.op.key);
  PutBytes(out, entry.op.value);
  EncodeResult(out, entry.result);
}

void EncodeAppendHeader(std::vector<uint8_t>& out, const ReplicaMessage& msg,
                        uint32_t entry_count) {
  out.push_back(static_cast<uint8_t>(ReplicaMessageType::kAppend));
  PutU64(out, msg.epoch);
  PutU32(out, msg.sender);
  PutU64(out, msg.first_index);
  PutU64(out, msg.prev_epoch);
  PutU64(out, msg.commit_index);
  PutU64(out, msg.leader_end);
  PutU32(out, entry_count);
}

std::vector<uint8_t> EncodeReplicaMessage(const ReplicaMessage& msg,
                                          size_t headroom) {
  std::vector<uint8_t> out;
  out.reserve(headroom + ReplicaMessageBytes(msg));
  out.resize(headroom);
  if (msg.type == ReplicaMessageType::kAppend) {
    EncodeAppendHeader(out, msg, static_cast<uint32_t>(msg.entries.size()));
    for (const LogEntry& entry : msg.entries) {
      EncodeLogEntry(out, entry);
    }
    return out;
  }
  out.push_back(static_cast<uint8_t>(msg.type));
  PutU64(out, msg.epoch);
  PutU32(out, msg.sender);
  switch (msg.type) {
    case ReplicaMessageType::kAppend:
      break;  // encoded above
    case ReplicaMessageType::kAppendAck:
      PutU64(out, msg.ack_index);
      break;
    case ReplicaMessageType::kPromoteQuery:
      PutU64(out, msg.new_epoch);
      break;
    case ReplicaMessageType::kPromoteReply:
      PutU64(out, msg.last_epoch);
      PutU64(out, msg.last_index);
      PutU64(out, msg.new_epoch);
      out.push_back(msg.granted ? 1 : 0);
      break;
    case ReplicaMessageType::kCatchupRequest:
      PutU64(out, msg.last_epoch);
      PutU64(out, msg.last_index);
      break;
    case ReplicaMessageType::kPromote:
      PutU64(out, msg.new_epoch);
      break;
    case ReplicaMessageType::kStateChunk:
      PutU64(out, msg.snapshot_epoch);
      PutU64(out, msg.snapshot_index);
      PutU32(out, msg.chunk_seq);
      out.push_back(msg.chunk_flags);
      PutU32(out, static_cast<uint32_t>(msg.kvs.size()));
      for (const auto& [key, value] : msg.kvs) {
        PutU16(out, static_cast<uint16_t>(key.size()));
        PutU32(out, static_cast<uint32_t>(value.size()));
        PutBytes(out, key);
        PutBytes(out, value);
      }
      if ((msg.chunk_flags & kStateChunkSessions) != 0) {
        PutU32(out, static_cast<uint32_t>(msg.sessions.size()));
        for (const SessionRecord& record : msg.sessions) {
          PutU64(out, record.sequence);
          PutU16(out, record.slot);
          EncodeResult(out, record.result);
        }
      }
      break;
  }
  return out;
}

Result<ReplicaMessage> DecodeReplicaMessage(std::span<const uint8_t> payload) {
  Reader reader{payload};
  ReplicaMessage msg;
  uint8_t type_byte;
  if (!reader.Take(&type_byte, 1) || !reader.Take(&msg.epoch, 8) ||
      !reader.Take(&msg.sender, 4)) {
    return Status::InvalidArgument("truncated replica message header");
  }
  if (type_byte > kMaxReplicaMessageType) {
    return Status::InvalidArgument("unknown replica message type");
  }
  msg.type = static_cast<ReplicaMessageType>(type_byte);
  switch (msg.type) {
    case ReplicaMessageType::kAppend: {
      uint32_t count;
      if (!reader.Take(&msg.first_index, 8) || !reader.Take(&msg.prev_epoch, 8) ||
          !reader.Take(&msg.commit_index, 8) || !reader.Take(&msg.leader_end, 8) ||
          !reader.Take(&count, 4)) {
        return Status::InvalidArgument("truncated append header");
      }
      // A corrupt count must not size the vector: reserve only what the
      // remaining bytes could hold.
      msg.entries.reserve(std::min<size_t>(
          count, reader.Rest().size() / (kEntryFixedBytes + kResultFixedBytes)));
      for (uint32_t i = 0; i < count; i++) {
        LogEntry entry;
        if (!DecodeEntry(reader, entry)) {
          return Status::InvalidArgument("truncated append entry");
        }
        msg.entries.push_back(std::move(entry));
      }
      break;
    }
    case ReplicaMessageType::kAppendAck:
      if (!reader.Take(&msg.ack_index, 8)) {
        return Status::InvalidArgument("truncated append ack");
      }
      break;
    case ReplicaMessageType::kPromoteQuery:
      if (!reader.Take(&msg.new_epoch, 8)) {
        return Status::InvalidArgument("truncated promote query");
      }
      break;
    case ReplicaMessageType::kPromoteReply: {
      uint8_t granted_byte;
      if (!reader.Take(&msg.last_epoch, 8) || !reader.Take(&msg.last_index, 8) ||
          !reader.Take(&msg.new_epoch, 8) || !reader.Take(&granted_byte, 1)) {
        return Status::InvalidArgument("truncated promote reply");
      }
      if (granted_byte > 1) {
        return Status::InvalidArgument("invalid vote byte");
      }
      msg.granted = granted_byte != 0;
      break;
    }
    case ReplicaMessageType::kCatchupRequest:
      if (!reader.Take(&msg.last_epoch, 8) || !reader.Take(&msg.last_index, 8)) {
        return Status::InvalidArgument("truncated log position");
      }
      break;
    case ReplicaMessageType::kPromote:
      if (!reader.Take(&msg.new_epoch, 8)) {
        return Status::InvalidArgument("truncated promote");
      }
      break;
    case ReplicaMessageType::kStateChunk: {
      uint32_t count;
      if (!reader.Take(&msg.snapshot_epoch, 8) ||
          !reader.Take(&msg.snapshot_index, 8) ||
          !reader.Take(&msg.chunk_seq, 4) || !reader.Take(&msg.chunk_flags, 1) ||
          !reader.Take(&count, 4)) {
        return Status::InvalidArgument("truncated state chunk header");
      }
      if ((msg.chunk_flags & ~kStateChunkKnownFlags) != 0) {
        return Status::InvalidArgument("unknown state chunk flags");
      }
      msg.kvs.reserve(std::min<size_t>(count, reader.Rest().size() / (2 + 4)));
      for (uint32_t i = 0; i < count; i++) {
        uint16_t key_len;
        uint32_t value_len;
        std::vector<uint8_t> key, value;
        if (!reader.Take(&key_len, 2) || !reader.Take(&value_len, 4) ||
            !reader.TakeBytes(key, key_len) || !reader.TakeBytes(value, value_len)) {
          return Status::InvalidArgument("truncated state chunk kv");
        }
        msg.kvs.emplace_back(std::move(key), std::move(value));
      }
      if ((msg.chunk_flags & kStateChunkSessions) != 0) {
        if (!reader.Take(&count, 4)) {
          return Status::InvalidArgument("truncated state chunk sessions");
        }
        for (uint32_t i = 0; i < count; i++) {
          SessionRecord record;
          if (!reader.Take(&record.sequence, 8) || !reader.Take(&record.slot, 2) ||
              !DecodeResult(reader, record.result)) {
            return Status::InvalidArgument("truncated state chunk session");
          }
          msg.sessions.push_back(std::move(record));
        }
      }
      break;
    }
  }
  if (!reader.Done()) {
    return Status::InvalidArgument("trailing bytes in replica message");
  }
  return msg;
}

size_t GroupRequestBytes(const GroupRequestHeader& header, size_t ops_bytes) {
  return 8 + (header.has_route ? 12 : 0) + ops_bytes;
}

void AppendGroupRequest(std::vector<uint8_t>& out,
                        const GroupRequestHeader& header,
                        std::span<const uint8_t> ops_payload) {
  // The watermark itself must never collide with the route marker bit.
  PutU64(out, (header.required_index & ~kGroupRequestRouted) |
                  (header.has_route ? kGroupRequestRouted : 0));
  if (header.has_route) {
    PutU64(out, header.map_epoch);
    PutU32(out, header.partition);
  }
  PutBytes(out, ops_payload);
}

std::vector<uint8_t> EncodeGroupRequest(const GroupRequest& request) {
  std::vector<uint8_t> out;
  out.reserve(GroupRequestBytes(request, request.ops_payload.size()));
  AppendGroupRequest(out, request, request.ops_payload);
  return out;
}

Result<GroupRequest> DecodeGroupRequest(std::span<const uint8_t> payload) {
  Reader reader{payload};
  GroupRequest request;
  if (!reader.Take(&request.required_index, 8)) {
    return Status::InvalidArgument("truncated group request header");
  }
  if ((request.required_index & kGroupRequestRouted) != 0) {
    request.required_index &= ~kGroupRequestRouted;
    request.has_route = true;
    if (!reader.Take(&request.map_epoch, 8) ||
        !reader.Take(&request.partition, 4)) {
      return Status::InvalidArgument("truncated group request route");
    }
  }
  const std::span<const uint8_t> ops = reader.Rest();
  request.ops_payload.assign(ops.begin(), ops.end());
  return request;
}

std::vector<uint8_t> EncodeGroupResponse(const GroupResponse& response) {
  std::vector<uint8_t> out;
  out.reserve(21 + response.results_payload.size());
  out.push_back(response.flags);
  PutU64(out, response.epoch);
  PutU32(out, response.primary_id);
  PutU64(out, response.assigned_index);
  if ((response.flags & (kGroupWrongShard | kGroupMigrating)) != 0) {
    PutU64(out, response.map_epoch);
    PutU32(out, response.owner_group);
    PutU32(out, response.num_partitions);
  }
  PutBytes(out, response.results_payload);
  return out;
}

Result<GroupResponse> DecodeGroupResponse(std::span<const uint8_t> payload) {
  Reader reader{payload};
  GroupResponse response;
  if (!reader.Take(&response.flags, 1) || !reader.Take(&response.epoch, 8) ||
      !reader.Take(&response.primary_id, 4) ||
      !reader.Take(&response.assigned_index, 8)) {
    return Status::InvalidArgument("truncated group response header");
  }
  if ((response.flags & ~kGroupKnownFlags) != 0) {
    return Status::InvalidArgument("unknown group response flags");
  }
  if ((response.flags & (kGroupWrongShard | kGroupMigrating)) != 0) {
    if (!reader.Take(&response.map_epoch, 8) ||
        !reader.Take(&response.owner_group, 4) ||
        !reader.Take(&response.num_partitions, 4)) {
      return Status::InvalidArgument("truncated group response shard context");
    }
  }
  const std::span<const uint8_t> results = reader.Rest();
  response.results_payload.assign(results.begin(), results.end());
  return response;
}

}  // namespace kvd
