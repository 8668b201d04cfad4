// Host-side cost of the simulator, one layer at a time (ROADMAP item 3).
//
// Host_DesEvents measures the discrete-event core alone: a bare Simulation
// runs a synthetic process mix of timed delays, same-instant yields,
// semaphore hand-offs and bounded-channel sends, and the case reports how
// many events the host executes per wall second. The event count of a pass
// is deterministic; the rate is wall time and noisy, so BENCH_host.json
// (sim_events, host_des_events_per_s, wall_seconds) is a trajectory record
// and stays out of bench/baselines.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench_report.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"

namespace {

namespace sim = gflink::sim;
using sim::Co;
using sim::Simulation;

Co<void> sleeper(Simulation& s, int steps) {
  for (int i = 0; i < steps; ++i) {
    co_await s.delay(1 + i % 7);
    co_await s.yield();
  }
}

Co<void> contender(Simulation& s, sim::Semaphore& slots, int steps) {
  for (int i = 0; i < steps; ++i) {
    co_await slots.acquire();
    co_await s.delay(3);
    slots.release();
  }
}

Co<void> producer(Simulation& s, sim::Channel<std::int64_t>& ch, int steps) {
  for (int i = 0; i < steps; ++i) {
    co_await ch.send(i);
    if (i % 4 == 0) co_await s.delay(2);
  }
  ch.close();
}

Co<void> consumer(Simulation& s, sim::Channel<std::int64_t>& ch, std::int64_t& sum) {
  while (auto v = co_await ch.recv()) {
    sum += *v;
    co_await s.delay(1);
  }
}

struct MixResult {
  std::uint64_t events = 0;
  std::int64_t checksum = 0;
};

// `groups` groups of five processes: a sleeper, two contenders sharing a
// semaphore with one slot per group, and a producer/consumer pair on a
// channel of capacity 2.
MixResult run_mix(int groups, int steps) {
  Simulation s;
  sim::Semaphore slots(s, groups);
  std::vector<std::unique_ptr<sim::Channel<std::int64_t>>> channels;
  std::int64_t sum = 0;
  for (int g = 0; g < groups; ++g) {
    auto& ch = *channels.emplace_back(std::make_unique<sim::Channel<std::int64_t>>(s, 2));
    s.spawn(sleeper(s, steps));
    s.spawn(contender(s, slots, steps));
    s.spawn(contender(s, slots, steps));
    s.spawn(producer(s, ch, steps));
    s.spawn(consumer(s, ch, sum));
  }
  s.run();
  GFLINK_CHECK_MSG(s.live_processes() == 0, "process mix left a process parked");
  return {s.events_processed(), sum};
}

void Host_DesEvents(benchmark::State& state) {
  const int groups = static_cast<int>(state.range(0));
  const int steps = static_cast<int>(state.range(1));
  std::uint64_t events_per_pass = 0;
  std::uint64_t events = 0;
  double seconds = 0;
  for (auto _ : state) {
    const auto begin = std::chrono::steady_clock::now();
    const MixResult r = run_mix(groups, steps);
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
    benchmark::DoNotOptimize(r.checksum);
    GFLINK_CHECK_MSG(events_per_pass == 0 || r.events == events_per_pass,
                     "event count differs between identical passes");
    events_per_pass = r.events;
    events += r.events;
  }
  state.counters["events"] = static_cast<double>(events_per_pass);
  state.counters["events_per_s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);

  gflink::obs::RunReport& rep = gflink::bench::bench_report();
  rep.metrics.gauge("sim_events").set(static_cast<double>(events_per_pass));
  rep.metrics.gauge("host_des_events_per_s").set(static_cast<double>(events) / seconds);
}
BENCHMARK(Host_DesEvents)->Args({64, 2000})->Unit(benchmark::kMillisecond);

}  // namespace

GFLINK_BENCH_MAIN(host);
