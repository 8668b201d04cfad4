#include "sim/simulation.hpp"

#include <algorithm>
#include <limits>

namespace gflink::sim {

Simulation::~Simulation() {
  while (!unstarted_.empty()) unstarted_.pop_front().destroy();
}

void Simulation::push(Time t, Action action) {
  GFLINK_CHECK_MSG(std::this_thread::get_id() == owner_,
                   "Simulation used from a thread other than its owner");
  GFLINK_CHECK_MSG(t >= now_, "cannot schedule an event in the past");
  if (t == now_) {
    lane_.push_back(std::move(action));
    return;
  }
  heap_.push_back(Event{t, next_seq_++, std::move(action)});
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
}

Simulation::Event Simulation::pop_earliest() {
  std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
  Event e = std::move(heap_.back());
  heap_.pop_back();
  return e;
}

Simulation::DetachedTask Simulation::drive(Co<void> co) {
  unstarted_.pop_front();  // this frame: spawns start in spawn order
  ++live_processes_;
  co_await std::move(co);
  --live_processes_;
}

void Simulation::spawn(Co<void> co) {
  std::coroutine_handle<> h = drive(std::move(co)).handle;
  unstarted_.push_back(h);
  resume_in(0, h);
}

std::uint64_t Simulation::drain(Time limit) {
  std::uint64_t n = 0;
  for (;;) {
    Action action;
    if (!heap_.empty() && heap_.front().t == now_) {
      action = pop_earliest().action;
    } else if (!lane_.empty()) {
      action = lane_.pop_front();
    } else if (!heap_.empty() && heap_.front().t <= limit) {
      now_ = heap_.front().t;
      action = pop_earliest().action;
    } else {
      return n;
    }
    ++events_processed_;
    ++n;
    action();
  }
}

Time Simulation::run() {
  drain(std::numeric_limits<Time>::max());
  return now_;
}

std::uint64_t Simulation::run_until(Time t) {
  GFLINK_CHECK_MSG(t >= now_, "run_until into the past");
  const std::uint64_t n = drain(t);
  now_ = t;
  return n;
}

}  // namespace gflink::sim
