#include "src/replica/replica_log.h"

#include <algorithm>

#include "src/common/assert.h"

namespace kvd {

uint64_t ReplicaLog::EpochAt(uint64_t index) const {
  if (index == 0) {
    return 0;
  }
  if (index == base_) {
    return base_epoch_;
  }
  KVD_CHECK_MSG(Contains(index), "epoch lookup outside the stored log");
  return entries_[index - base_ - 1].epoch;
}

const LogEntry& ReplicaLog::At(uint64_t index) const {
  KVD_CHECK_MSG(Contains(index), "log lookup outside the stored log");
  return entries_[index - base_ - 1];
}

uint64_t ReplicaLog::WindowSize(uint64_t first, uint32_t max_entries) const {
  KVD_CHECK_MSG(first > base_, "window starts below the trimmed base");
  if (first > end()) {
    return 0;
  }
  return std::min(end(), first + max_entries - 1) - first + 1;
}

std::vector<uint8_t> ReplicaLog::EncodeWindow(const ReplicaMessage& header,
                                              uint64_t first, uint64_t count,
                                              size_t headroom) const {
  KVD_CHECK(count == 0 || (Contains(first) && Contains(first + count - 1)));
  size_t bytes = headroom + kAppendHeaderBytes;
  for (uint64_t index = first; index < first + count; index++) {
    bytes += LogEntryBytes(At(index));
  }
  std::vector<uint8_t> out;
  out.reserve(bytes);
  out.resize(headroom);
  EncodeAppendHeader(out, header, static_cast<uint32_t>(count));
  for (uint64_t index = first; index < first + count; index++) {
    EncodeLogEntry(out, At(index));
  }
  return out;
}

void ReplicaLog::Trim(uint64_t max_entries) {
  while (entries_.size() > max_entries) {
    base_epoch_ = entries_.front().epoch;
    entries_.pop_front();
    base_++;
  }
}

void ReplicaLog::ResetToSnapshot(uint64_t index, uint64_t epoch) {
  entries_.clear();
  base_ = index;
  base_epoch_ = epoch;
}

}  // namespace kvd
