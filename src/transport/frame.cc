#include "src/transport/frame.h"

#include <cstring>

#include "src/common/assert.h"
#include "src/common/hashing.h"

namespace kvd {
namespace {

// 32-bit payload checksum keyed by the sequence number, so a flip anywhere in
// the frame (sequence, checksum, or payload) breaks verification.
uint32_t FrameChecksum(uint64_t sequence, std::span<const uint8_t> payload) {
  return static_cast<uint32_t>(
      HashBytes(payload.data(), payload.size(), Mix64(sequence) ^ 0xf4a3e));
}

}  // namespace

std::vector<uint8_t> FramePacket(uint64_t sequence, std::span<const uint8_t> payload) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.resize(kFrameHeaderBytes);
  out.insert(out.end(), payload.begin(), payload.end());
  SealFrame(sequence, out);
  return out;
}

void SealFrame(uint64_t sequence, std::span<uint8_t> buffer) {
  KVD_CHECK(buffer.size() >= kFrameHeaderBytes);
  const uint32_t checksum =
      FrameChecksum(sequence, buffer.subspan(kFrameHeaderBytes));
  std::memcpy(buffer.data(), &sequence, 8);
  std::memcpy(buffer.data() + 8, &checksum, 4);
}

Result<Frame> ParseFrame(std::span<const uint8_t> packet) {
  if (packet.size() < kFrameHeaderBytes) {
    return Status::InvalidArgument("truncated frame header");
  }
  Frame frame;
  uint32_t checksum;
  std::memcpy(&frame.sequence, packet.data(), 8);
  std::memcpy(&checksum, packet.data() + 8, 4);
  frame.payload = packet.subspan(kFrameHeaderBytes);
  if (checksum != FrameChecksum(frame.sequence, frame.payload)) {
    return Status::InvalidArgument("frame checksum mismatch");
  }
  return frame;
}

}  // namespace kvd
