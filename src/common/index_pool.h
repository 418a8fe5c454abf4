// Index-addressed object pool with a free list.
//
// The NIC keeps in-flight state in fixed hardware tables (DMA tags, the
// reservation station, PCIe credits); the simulator mirrors that with one
// pool per layer. Callbacks capture the 32-bit index rather than the state
// itself, so per-transaction state never rides inside a closure and a slot
// is recycled without touching the heap once the pool has grown to its
// working size.
//
// Recycled slots hide use-after-free from AddressSanitizer, so every access
// checks that the slot is live (always on, like KVD_CHECK elsewhere).
// Growing the pool moves its elements: never hold a reference across an
// Allocate().
#ifndef SRC_COMMON_INDEX_POOL_H_
#define SRC_COMMON_INDEX_POOL_H_

#include <cstdint>
#include <vector>

#include "src/common/assert.h"

namespace kvd {

template <typename T>
class IndexPool {
 public:
  // Returns the index of a live slot. A recycled slot keeps whatever its
  // previous user left in it (buffers keep their capacity); callers assign
  // every field they rely on.
  uint32_t Allocate() {
    uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<uint32_t>(items_.size());
      items_.emplace_back();
      live_.push_back(0);
    }
    live_[index] = 1;
    live_count_++;
    return index;
  }

  void Free(uint32_t index) {
    KVD_CHECK_MSG(IsLive(index), "IndexPool slot freed twice");
    live_[index] = 0;
    free_.push_back(index);
    live_count_--;
  }

  T& operator[](uint32_t index) {
    KVD_CHECK_MSG(IsLive(index), "IndexPool access to a free slot");
    return items_[index];
  }

  bool IsLive(uint32_t index) const {
    return index < live_.size() && live_[index] != 0;
  }
  size_t live() const { return live_count_; }

 private:
  std::vector<T> items_;
  std::vector<uint8_t> live_;
  std::vector<uint32_t> free_;
  size_t live_count_ = 0;
};

}  // namespace kvd

#endif  // SRC_COMMON_INDEX_POOL_H_
