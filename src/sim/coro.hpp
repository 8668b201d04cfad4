// Coroutine task type for simulation processes.
//
// `Co<T>` is a lazy, awaitable coroutine: calling an async function builds
// the coroutine frame suspended; `co_await`-ing it starts it and resumes the
// awaiter when it completes (via symmetric transfer, so arbitrarily deep
// await chains do not grow the native stack). Top-level processes are
// detached into a Simulation with `Simulation::spawn`.
//
// Frames come from a per-thread free list (see PooledFrame below), so the
// await-heavy hot loops of the simulator do not go through malloc for each
// call. The pool is per thread because a Simulation and every process in it
// stay on the thread that constructed the Simulation.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "sim/util.hpp"

namespace gflink::sim {

template <typename T>
class Co;

namespace detail {

/// Frame allocation for simulation coroutines. Requests of up to
/// kMaxPooledFrame bytes are rounded up to a multiple of kFrameClassBytes
/// and recycled through a free list per size class and thread: a frame
/// freed into a class is the next one that class hands out. Larger requests
/// go to global new/delete. `frame_free` must get the size passed to
/// `frame_alloc`. The lists are released when their thread exits.
inline constexpr std::size_t kFrameClassBytes = 64;
inline constexpr std::size_t kMaxPooledFrame = 2048;
void* frame_alloc(std::size_t bytes);
void frame_free(void* frame, std::size_t bytes) noexcept;

/// Base of every simulator promise type: routes the coroutine frame through
/// frame_alloc/frame_free.
struct PooledFrame {
  static void* operator new(std::size_t bytes) { return frame_alloc(bytes); }
  static void operator delete(void* frame, std::size_t bytes) noexcept {
    frame_free(frame, bytes);
  }
};

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
    // Hand control back to whoever awaited us; if nobody did (detached
    // wrapper always awaits, so this is just defensive) return to the
    // scheduler loop.
    auto cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct CoPromiseBase : PooledFrame {
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

/// Lazy awaitable coroutine returning T. Move-only; owns its frame.
template <typename T>
class [[nodiscard]] Co {
 public:
  struct promise_type : detail::CoPromiseBase {
    std::optional<T> value{};

    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Co() = default;
  explicit Co(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() {
    if (handle_) handle_.destroy();
  }

  bool valid() const { return static_cast<bool>(handle_); }

  // Awaitable interface.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
    handle_.promise().continuation = parent;
    return handle_;  // start the child coroutine (symmetric transfer)
  }
  T await_resume() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
    GFLINK_CHECK_MSG(p.value.has_value(), "coroutine finished without a value");
    return std::move(*p.value);
  }

 private:
  std::coroutine_handle<promise_type> handle_{};
};

/// Co<void>: same contract, no value.
template <>
class [[nodiscard]] Co<void> {
 public:
  struct promise_type : detail::CoPromiseBase {
    Co get_return_object() {
      return Co(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Co() = default;
  explicit Co(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Co(Co&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() {
    if (handle_) handle_.destroy();
  }

  bool valid() const { return static_cast<bool>(handle_); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
  }

 private:
  std::coroutine_handle<promise_type> handle_{};
};

}  // namespace gflink::sim
