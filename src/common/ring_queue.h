// Growable FIFO ring buffer.
//
// Replaces std::deque on the simulator's hot queues (admission queues, token
// pool waiters, reservation-station chains). A deque allocates and frees a
// block as it churns through its ends; the ring keeps its power-of-two buffer
// once grown, so a steady-state push/pop never touches the heap. An empty
// ring owns no memory at all.
#ifndef SRC_COMMON_RING_QUEUE_H_
#define SRC_COMMON_RING_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/assert.h"

namespace kvd {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() {
    KVD_DCHECK(size_ > 0);
    return buffer_[head_];
  }
  // `i`-th element from the front.
  T& operator[](size_t i) {
    KVD_DCHECK(i < size_);
    return buffer_[Wrap(head_ + i)];
  }

  void push_back(T value) {
    if (size_ == buffer_.size()) {
      Grow();
    }
    buffer_[Wrap(head_ + size_)] = std::move(value);
    size_++;
  }

  // Drops the front element (its slot is reset so it holds no resources).
  void pop_front() {
    KVD_CHECK(size_ > 0);
    buffer_[head_] = T();
    head_ = Wrap(head_ + 1);
    size_--;
  }

  // Removes every element for which `pred` returns true, keeping the others
  // in order. `pred` sees each element exactly once, front to back, so it
  // may act on the ones it removes.
  template <typename Pred>
  void RemoveIf(Pred pred) {
    size_t kept = 0;
    for (size_t i = 0; i < size_; i++) {
      T& item = buffer_[Wrap(head_ + i)];
      if (pred(item)) {
        continue;
      }
      if (kept != i) {
        buffer_[Wrap(head_ + kept)] = std::move(item);
      }
      kept++;
    }
    for (size_t i = kept; i < size_; i++) {
      buffer_[Wrap(head_ + i)] = T();
    }
    size_ = kept;
  }

 private:
  // Capacity is always a power of two.
  size_t Wrap(size_t i) const { return i & (buffer_.size() - 1); }

  void Grow() {
    std::vector<T> grown(buffer_.empty() ? 4 : buffer_.size() * 2);
    for (size_t i = 0; i < size_; i++) {
      grown[i] = std::move(buffer_[Wrap(head_ + i)]);
    }
    buffer_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> buffer_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace kvd

#endif  // SRC_COMMON_RING_QUEUE_H_
