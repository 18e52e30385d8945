#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ragnar::sim {

// A move-only `void()` callable with 160 bytes of inline storage — the event
// type of the whole simulation core (EventQueue slab, Engine mailbox).
//
// A capture that fits the budget is constructed in place, so scheduling it
// costs no heap allocation; the largest hot capture, the rnic admission
// lambda `[this, msg, t, admit]` around a 136-byte InFlightMsg, is exactly
// 160 bytes.  A larger (or over-aligned, or throwing-move) capture is boxed
// on the heap and still works, only slower.  Hot call sites pin themselves
// to the inline path with `static_assert(InlineFn::fits<decltype(fn)>)`, so
// growing a captured type past the budget fails to compile instead of
// silently turning every event back into an allocation.
//
// Unlike std::function the callable need not be copyable: a capture holding
// a std::unique_ptr is fine.
class InlineFn {
 public:
  static constexpr std::size_t kInlineBytes = 160;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  template <typename F>
  static constexpr bool fits = sizeof(F) <= kInlineBytes &&
                               alignof(F) <= kInlineAlign &&
                               std::is_nothrow_move_constructible_v<F>;

  InlineFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn>>>
  InlineFn(F&& fn) {  // NOLINT: implicit, like std::function
    construct(std::forward<F>(fn));
  }

  InlineFn(InlineFn&& other) noexcept { take(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  // Replace the held callable.  Passing an InlineFn moves its callable in
  // (no double wrapping).
  template <typename F>
  void emplace(F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineFn>) {
      *this = std::move(fn);
    } else {
      reset();
      construct(std::forward<F>(fn));
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Precondition: holds a callable.
  void operator()() { ops_->invoke(storage()); }

  // Destroy the held callable (captures are released here, exactly once).
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage());
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-construct into dst from src, then destroy src.
    void (*relocate)(void* dst, void* src) noexcept;
    // nullptr when destruction is a no-op (trivially destructible inline).
    void (*destroy)(void*) noexcept;
  };

  template <typename T>
  struct Inline {
    static void invoke(void* p) { (*static_cast<T*>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      T* from = static_cast<T*>(src);
      ::new (dst) T(std::move(*from));
      from->~T();
    }
    static void destroy(void* p) noexcept { static_cast<T*>(p)->~T(); }
    static constexpr Ops kOps{
        &invoke, &relocate,
        std::is_trivially_destructible_v<T> ? nullptr : &destroy};
  };

  template <typename T>
  struct Boxed {
    static T*& box(void* p) { return *static_cast<T**>(p); }
    static void invoke(void* p) { (*box(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) T*(box(src));
    }
    static void destroy(void* p) noexcept { delete box(p); }
    static constexpr Ops kOps{&invoke, &relocate, &destroy};
  };

  template <typename F>
  void construct(F&& fn) {
    using T = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, T&>,
                  "InlineFn holds void() callables");
    if constexpr (fits<T>) {
      ::new (storage()) T(std::forward<F>(fn));
      ops_ = &Inline<T>::kOps;
    } else {
      ::new (storage()) T*(new T(std::forward<F>(fn)));
      ops_ = &Boxed<T>::kOps;
    }
  }

  void take(InlineFn& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage(), other.storage());
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void* storage() noexcept { return static_cast<void*>(buf_); }

  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace ragnar::sim
