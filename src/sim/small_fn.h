// Move-only type-erased callable with inline small-buffer storage.
//
// Simulator events are the hottest allocation site in the whole system: a
// million-client sweep schedules tens of millions of callbacks, and
// std::function heap-allocates any capture list over ~16 bytes (our typical
// event captures `this` plus two or three scalars, which is just past that
// edge). SmallFn widens the inline buffer to 64 pointer-aligned bytes, so
// every event callback in the codebase — the largest is a data packet's
// delivery (shared_ptr + direction + packet number + 32-byte chunk = 64
// bytes) — is stored in place inside its arena slot, with no per-event heap
// allocation. sizeof(SmallFn) is 72 and a Simulator arena slot 80. Oversized
// or over-aligned captures fall back to the heap.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace h3cdn::sim {

class SmallFn {
 public:
  /// Inline capacity: covers every event lambda in the tree (the largest is
  /// Connection's data-packet delivery at 64 bytes).
  static constexpr std::size_t kInlineBytes = 64;

  /// True when a callable of type Fn is stored in place, with no heap block.
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      Fn* heap = new Fn(std::forward<F>(f));
      std::memcpy(buf_, &heap, sizeof heap);
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  /// True when a callable is held.
  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  /// Destroys the held callable (if any) and returns to the empty state.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;  // move dst <- src, destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  struct InlineOps {
    static Fn* self(void* b) { return std::launder(reinterpret_cast<Fn*>(b)); }
    static void invoke(void* b) { (*self(b))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn(std::move(*self(src)));
      self(src)->~Fn();
    }
    static void destroy(void* b) noexcept { self(b)->~Fn(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* self(void* b) {
      Fn* p;
      std::memcpy(&p, b, sizeof p);
      return p;
    }
    static void invoke(void* b) { (*self(b))(); }
    static void relocate(void* dst, void* src) noexcept {
      std::memcpy(dst, src, sizeof(Fn*));  // pointer hop: just move the pointer
    }
    static void destroy(void* b) noexcept { delete self(b); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  void move_from(SmallFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char buf_[kInlineBytes];
};

}  // namespace h3cdn::sim
