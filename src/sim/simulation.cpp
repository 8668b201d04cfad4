#include "sim/simulation.hpp"

#include <cinttypes>
#include <cstdio>

namespace gflink::sim {

void Simulation::schedule_at(Time t, UniqueFunction fn) {
  GFLINK_CHECK_MSG(std::this_thread::get_id() == owner_,
                   "Simulation used from a thread other than its owner");
  GFLINK_CHECK_MSG(t >= now_, "cannot schedule an event in the past");
  queue_.push(Event{t, next_seq_++, std::move(fn)});
}

Simulation::DetachedTask Simulation::drive(Co<void> co) {
  ++live_processes_;
  co_await std::move(co);
  --live_processes_;
}

void Simulation::spawn(Co<void> co) {
  schedule_in(0, [this, c = std::move(co)]() mutable { drive(std::move(c)); });
}

Time Simulation::run() {
  while (!queue_.empty()) {
    // priority_queue::top() returns const&; the event function is move-only,
    // so we const_cast to move it out before popping. This is safe because
    // the element is removed immediately afterwards.
    auto& top = const_cast<Event&>(queue_.top());
    GFLINK_CHECK(top.t >= now_);
    now_ = top.t;
    UniqueFunction fn = std::move(top.fn);
    queue_.pop();
    ++events_processed_;
    fn();
  }
  return now_;
}

std::uint64_t Simulation::run_until(Time t) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.top().t <= t) {
    auto& top = const_cast<Event&>(queue_.top());
    now_ = top.t;
    UniqueFunction fn = std::move(top.fn);
    queue_.pop();
    ++events_processed_;
    ++n;
    fn();
  }
  now_ = t;
  return n;
}

}  // namespace gflink::sim
