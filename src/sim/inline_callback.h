// Move-only, type-erased `void()` callable for the timed path.
//
// Every completion in the hardware models (event, token grant, TLP, DMA
// transfer, memory access) is one of these. Captures of up to kInlineBytes
// live inside the object, so scheduling an event or parking a waiter does not
// touch the heap; larger captures still work through a heap fallback.
//
// The capture rule on the timed path is "[this, pool index] plus scalars":
// per-transaction state lives in the owning layer's IndexPool
// (src/common/index_pool.h), so no callback ever wraps another callback.
#ifndef SRC_SIM_INLINE_CALLBACK_H_
#define SRC_SIM_INLINE_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/assert.h"

namespace kvd {

class InlineCallback {
 public:
  // A compile-time constant, not a knob: eight words hold every timed-path
  // capture, including a processor completion handed back on rejection.
  static constexpr size_t kInlineBytes = 64;

  InlineCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineCallback(F&& fn) {  // NOLINT: implicit by design
    using Fn = std::decay_t<F>;
    if constexpr (kStoredInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      if constexpr (!(std::is_trivially_copyable_v<Fn> &&
                      std::is_trivially_destructible_v<Fn>)) {
        manage_ = [](void* src, void* dst) {
          Fn* from = static_cast<Fn*>(src);
          if (dst != nullptr) {
            ::new (dst) Fn(std::move(*from));
          }
          from->~Fn();
        };
      }
    } else {
      Fn* heap = new Fn(std::forward<F>(fn));
      std::memcpy(storage_, &heap, sizeof(heap));
      invoke_ = [](void* p) { (**static_cast<Fn**>(p))(); };
      manage_ = [](void* src, void* dst) {
        if (dst != nullptr) {
          std::memcpy(dst, src, sizeof(Fn*));
        } else {
          delete *static_cast<Fn**>(src);
        }
      };
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { TakeFrom(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() {
    KVD_CHECK_MSG(invoke_ != nullptr, "invoked an empty InlineCallback");
    invoke_(storage_);
  }

 private:
  // Destroys the held callable (and its captures); leaves this empty.
  void Reset() {
    if (manage_ != nullptr) {
      manage_(storage_, nullptr);
    }
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  using Invoke = void (*)(void* storage);
  // Relocates the callable from `src` into `dst` (destroying the source), or
  // destroys it in place when `dst` is null.
  using Manage = void (*)(void* src, void* dst);

  template <typename Fn>
  static constexpr bool kStoredInline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  void TakeFrom(InlineCallback& other) noexcept {
    if (other.manage_ == nullptr) {
      // Trivially relocatable (or empty): a byte copy is a move.
      std::memcpy(storage_, other.storage_, kInlineBytes);
    } else {
      other.manage_(other.storage_, storage_);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  // Not zeroed: only the held callable's bytes mean anything, and copying
  // indeterminate bytes as unsigned char (TakeFrom) is well defined.
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;  // null: nothing to run on move or destroy
};

}  // namespace kvd

#endif  // SRC_SIM_INLINE_CALLBACK_H_
