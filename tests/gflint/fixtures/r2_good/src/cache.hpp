#pragma once

// Fixture: a one-thread-confined class passes R2 — plain members, no locks.
// A sim::Mutex is a simulated resource (FIFO occupancy in virtual time),
// not a host lock, and the owner check may name std::thread::id.
class Cache {
 public:
  int entries() const { return entries_; }
  void add() { ++entries_; }

 private:
  sim::Mutex engine_;
  std::thread::id owner_;
  int entries_ = 0;
};
