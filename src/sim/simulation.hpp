// The discrete-event simulation engine.
//
// A Simulation owns a virtual clock and an event queue. Everything in the
// GFlink reproduction — network transfers, disk reads, PCIe DMA, kernel
// execution, CPU task processing — advances this clock; no wall-clock time
// is ever consulted, so runs are deterministic and bit-reproducible.
//
// Processes are C++20 coroutines (`Co<void>`) detached with `spawn()`.
// Awaiting `sim.delay(d)` suspends the process for `d` nanoseconds of
// virtual time. Synchronization primitives (Channel, Semaphore, ...) live
// in sync.hpp and resume waiters through the same event queue.
//
// Threading model: a Simulation, and every object wired to it (cluster,
// devices, managers, metric registries, span stores, flight recorders),
// belongs to the thread that constructed the Simulation. None of them
// carry locks. schedule_at() checks the calling thread, so cross-thread
// use aborts loudly instead of racing. Independent Simulations may run on
// separate threads as long as they share no mutable state.
#pragma once

#include <coroutine>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/coro.hpp"
#include "sim/time.hpp"
#include "sim/util.hpp"

namespace gflink::sim {

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  /// Frees the frames of spawned processes that never started.
  ~Simulation();

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedule `fn` to run at absolute virtual time `t` (must be >= now()).
  /// Aborts when called from a thread other than the constructing one.
  void schedule_at(Time t, UniqueFunction fn) { push(t, Action{{}, std::move(fn)}); }

  /// Schedule `fn` to run `d` nanoseconds from now.
  void schedule_in(Duration d, UniqueFunction fn) { schedule_at(now_ + d, std::move(fn)); }

  /// Resume the suspended coroutine `h` `d` nanoseconds from now. This is
  /// how processes wake up (delays, sync.hpp hand-offs, spawn); the event
  /// carries only the handle.
  void resume_in(Duration d, std::coroutine_handle<> h) { push(now_ + d, Action{h, {}}); }

  /// Detach a coroutine process into the simulation. The coroutine starts
  /// when the event queue reaches the current time slot (not synchronously),
  /// keeping spawn order deterministic and independent of call context.
  void spawn(Co<void> co);

  /// Run until the event queue is empty. Returns the final virtual time.
  Time run();

  /// Run events with timestamp <= t (t >= now()). The clock ends at exactly
  /// `t` even if the queue empties earlier. Returns the number of events
  /// processed.
  std::uint64_t run_until(Time t);

  /// True if no events are pending.
  bool idle() const { return heap_.empty() && lane_.empty(); }

  /// Number of events executed so far (diagnostic).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Number of detached processes that have been spawned but not finished.
  /// After run() this should normally be zero; a nonzero value means some
  /// process is parked forever (usually a bug in the model).
  int live_processes() const { return live_processes_; }

  /// Awaitable: suspend the current coroutine for `d` virtual nanoseconds.
  auto delay(Duration d) {
    struct Awaiter {
      Simulation* sim;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { sim->resume_in(d, h); }
      void await_resume() const noexcept {}
    };
    GFLINK_CHECK_MSG(d >= 0, "negative delay");
    return Awaiter{this, d};
  }

  /// Awaitable: yield to the event loop (resume in the same time slot,
  /// after already-queued events).
  auto yield() { return delay(0); }

 private:
  // What an event does: resume a coroutine, or (when `resume` is null) call
  // `fn`. Callbacks are for model logic that is not a process, such as
  // failure injection and timeouts.
  struct Action {
    std::coroutine_handle<> resume;
    UniqueFunction fn;
    void operator()() {
      if (resume) {
        resume.resume();
      } else {
        fn();
      }
    }
  };
  struct Event {
    Time t;
    std::uint64_t seq;  // tie-break: FIFO within a time slot
    Action action;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  // Runs one Co<void> to completion, maintaining the live-process count.
  // The frame is created suspended; spawn() queues its handle.
  struct DetachedTask {
    struct promise_type : detail::PooledFrame {
      DetachedTask get_return_object() {
        return {std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception() {
        // A simulation process must not leak exceptions: there is nobody
        // above it to catch them. Treat as fatal.
        std::fprintf(stderr, "uncaught exception escaped a simulation process\n");
        std::terminate();
      }
    };
    std::coroutine_handle<promise_type> handle;
  };
  DetachedTask drive(Co<void> co);

  void push(Time t, Action action);
  Event pop_earliest();
  std::uint64_t drain(Time limit);

  // Events are totally ordered by (t, seq). Events due later than now_ wait
  // in the heap. Events due at now_ go to the FIFO lane instead: every heap
  // event for now_ was pushed before the clock got here, so it has a lower
  // seq than anything in the lane and the loop runs those first.
  std::vector<Event> heap_;
  Fifo<Action> lane_;
  // Driver frames of spawned processes that have not started, in spawn
  // order. Spawns go through the lane, which starts them in that order.
  Fifo<std::coroutine_handle<>> unstarted_;
  const std::thread::id owner_ = std::this_thread::get_id();
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  int live_processes_ = 0;
};

}  // namespace gflink::sim
