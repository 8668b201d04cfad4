#pragma once
#include <atomic>
#include <mutex>

// Fixture: two R2 findings — a raw std::mutex member and a std::atomic
// member, both host concurrency in one-thread-confined code.
class Cache {
 private:
  std::mutex raw_mu_;            // finding: host lock
  std::atomic<int> hits_{0};     // finding: host atomic
  int entries_ = 0;
};
