// Small shared utilities for the simulation substrate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace gflink::sim {

/// Abort with a message when an internal invariant is violated.
/// Used for programmer errors, never for data-dependent conditions.
[[noreturn]] inline void check_failed(const char* cond, const char* file, int line,
                                      const std::string& msg = {}) {
  std::fprintf(stderr, "GFLINK_CHECK failed: %s at %s:%d %s\n", cond, file, line, msg.c_str());
  std::abort();
}

#define GFLINK_CHECK(cond)                                              \
  do {                                                                  \
    if (!(cond)) ::gflink::sim::check_failed(#cond, __FILE__, __LINE__); \
  } while (0)

#define GFLINK_CHECK_MSG(cond, msg)                                          \
  do {                                                                       \
    if (!(cond)) ::gflink::sim::check_failed(#cond, __FILE__, __LINE__, msg); \
  } while (0)

/// A move-only type-erased callable with signature void().
///
/// The standard std::function requires copy-constructible targets, which
/// rules out lambdas that capture coroutine task objects or other move-only
/// state. Event queues in the simulator store UniqueFunction instead.
class UniqueFunction {
 public:
  UniqueFunction() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, UniqueFunction>>>
  UniqueFunction(F&& f) : impl_(std::make_unique<Model<std::decay_t<F>>>(std::forward<F>(f))) {}

  UniqueFunction(UniqueFunction&&) noexcept = default;
  UniqueFunction& operator=(UniqueFunction&&) noexcept = default;
  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  explicit operator bool() const { return impl_ != nullptr; }

  void operator()() {
    GFLINK_CHECK(impl_ != nullptr);
    impl_->call();
  }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual void call() = 0;
  };
  template <typename F>
  struct Model final : Concept {
    explicit Model(F f) : fn(std::move(f)) {}
    void call() override { fn(); }
    F fn;
  };
  std::unique_ptr<Concept> impl_;
};

/// FIFO queue on one vector with a head index. Unlike a deque it
/// allocates nothing until the first push, and a queue that drains to empty
/// reuses its buffer from the start. Popped slots are reclaimed by moving
/// the live tail to the front when a push would otherwise grow the buffer
/// and at least half of it is dead, so push and pop stay amortized O(1).
template <typename T>
class Fifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }

  T& front() {
    GFLINK_CHECK(!empty());
    return items_[head_];
  }

  void push_back(T value) {
    if (items_.size() == items_.capacity() && head_ > 0 && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(std::move(value));
  }

  /// Remove and return the front element.
  T pop_front() {
    T value = std::move(front());
    if (++head_ == items_.size()) clear();
    return value;
  }

  /// Drop every element; the buffer is kept for reuse.
  void clear() {
    items_.clear();
    head_ = 0;
  }

  auto begin() { return items_.begin() + static_cast<std::ptrdiff_t>(head_); }
  auto end() { return items_.end(); }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace gflink::sim
