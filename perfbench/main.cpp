// The repository benchmark's measuring program (run it through run.py; see
// README.md):
//
//   gflink_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans-out <file>]
//
// Runs passes of one workload (each pass: set-up, then the Flink and the
// GFlink run) for about --seconds seconds and checks every pass. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
// untraced and traced passes and reports the per-layer metrics. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
// Exit status: 0 when every pass is correct, 1 when one failed, 2 on bad
// arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "harness.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_out;
};

[[noreturn]] void usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: gflink_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>]\n",
               error);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-') usage("--seed takes an integer >= 0");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds takes a number > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.seconds <= 0 || a.trace < 0) {
    usage("--workload, --seconds and --trace are required");
  }
  return a;
}

/// Errors of `p` against the reference pass: virtual results must repeat
/// to the last digit.
void check_repeat(const Pass& ref, Pass& p, bool same_tracing) {
  const auto same = [&](const ModeRun& a, const ModeRun& b) {
    return a.makespan == b.makespan && a.checksum == b.checksum &&
           (!same_tracing || a.events == b.events);
  };
  if (!same(ref.flink, p.flink) || !same(ref.gflink, p.gflink)) {
    char msg[200];
    std::snprintf(msg, sizeof msg,
                  "repeat differs: gflink %lld ns / %.17g, flink %lld ns / %.17g (first pass "
                  "%lld ns, %lld ns)",
                  static_cast<long long>(p.gflink.makespan), p.gflink.checksum,
                  static_cast<long long>(p.flink.makespan), p.flink.checksum,
                  static_cast<long long>(ref.gflink.makespan),
                  static_cast<long long>(ref.flink.makespan));
    p.errors.emplace_back(msg);
  }
}

/// Peak resident memory of this process image so far (VmHWM). Unlike
/// getrusage's ru_maxrss it is not inherited from the process that
/// exec'd us (run.py's Python interpreter).
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// set-up seconds of each repeat in `passes` (engine + runtime + service).
std::vector<double> setup_samples(const std::vector<Pass>& passes,
                                  std::vector<double> Pass::*part = nullptr) {
  std::vector<double> out;
  for (const Pass& p : passes) {
    for (int i = 0; i < kSetupRepeats; ++i) {
      const auto k = static_cast<std::size_t>(i);
      out.push_back(part != nullptr ? (p.*part)[k]
                                    : p.setup_engine_s[k] + p.setup_runtime_s[k] +
                                          p.setup_service_s[k]);
    }
  }
  return out;
}

/// Host seconds of passes[first..].
std::vector<double> host_samples(const std::vector<Pass>& passes, std::size_t first = 0) {
  std::vector<double> out;
  for (std::size_t i = first; i < passes.size(); ++i) out.push_back(passes[i].host_s());
  return out;
}

void print_json(bool correct, std::size_t attempted, std::size_t failed, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  auto workload = make_workload(args.workload, args.seed);
  if (!workload) usage(("unknown workload " + args.workload).c_str());
  const bool traced = args.trace == 1;
  const double scale = workload->scale();

  HostSpans spans;
  if (traced) spans.enable();
  std::vector<Pass> untraced_passes;
  std::vector<Pass> traced_passes;

  // Passes run until the next one would overrun the measuring window
  // (estimated from the median pass so far). The traced run keeps a fifth
  // of the window for the timed host-layer calls.
  const double window = traced ? 0.8 * args.seconds : args.seconds;
  const auto start = Clock::now();
  std::vector<double> round_s;
  double first_pass_rss_mb = 0.0;
  {
    const auto scope = spans.scope(args.workload);
    for (;;) {
      const auto t0 = Clock::now();
      untraced_passes.push_back(workload->run_pass(false, spans));
      // Peak memory through the first pass: later passes reuse the heap,
      // so their peak would depend on how many passes fit the window.
      if (untraced_passes.size() == 1) first_pass_rss_mb = peak_rss_mb();
      if (traced) traced_passes.push_back(workload->run_pass(true, spans));
      round_s.push_back(seconds_since(t0));
      if (round_s.size() >= 2 && seconds_since(start) + median(round_s) > window) break;
    }
  }

  // Correctness: every pass's own checks, and exact repeats of the first.
  std::size_t attempted = 0, failed = 0;
  const Pass& ref = untraced_passes.front();
  for (auto* passes : {&untraced_passes, &traced_passes}) {
    for (Pass& p : *passes) {
      check_repeat(ref, p, passes == &untraced_passes);
      ++attempted;
      if (!p.errors.empty()) ++failed;
      for (const auto& e : p.errors) {
        std::printf("FAIL %s: %s\n", args.workload.c_str(), e.c_str());
      }
    }
  }

  Metrics metrics;
  // The first pass warms caches and the allocator; host time is the median
  // of the untraced passes after it.
  const double host_s = median(host_samples(untraced_passes, 1));
  // The kernel registry is set up once per process; everything else per pass.
  const double setup_s = kernel_registration_s() + median(setup_samples(untraced_passes));
  if (!traced) {
    const double gflink_s = static_cast<double>(ref.gflink.makespan) * 1e-9;
    // A job that was rejected, cancelled or wrong counts as missing every
    // latency limit. A batch workload is one GFlink job: its makespan.
    std::vector<double> latency_ms;
    for (const auto& j : ref.jobs) {
      latency_ms.push_back(j.ok ? static_cast<double>(j.completed - j.enqueued) * 1e-6
                                : std::numeric_limits<double>::max());
    }
    if (latency_ms.empty()) latency_ms.push_back(gflink_s * 1e3);
    metrics = {
        {"gflink_sim_s", gflink_s / scale, "s"},
        {"flink_sim_s", static_cast<double>(ref.flink.makespan) * 1e-9 / scale, "s"},
        {"jobs_per_s", static_cast<double>(latency_ms.size()) / gflink_s, "1/s"},
        {"job_p50_ms", nearest_rank(latency_ms, 0.50), "ms"},
        {"job_p99_ms", nearest_rank(latency_ms, 0.99), "ms"},
        {"host_s", host_s, "s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", first_pass_rss_mb, "MiB"},
    };
    std::printf("%s seed=%llu: %zu passes; job latency over %zu samples (%zu beyond p99)\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                untraced_passes.size(), latency_ms.size(),
                latency_ms.size() - static_cast<std::size_t>(
                                        std::ceil(0.99 * static_cast<double>(latency_ms.size()))));
  } else {
    const Pass& t = traced_passes.front();
    layer_metrics(t, scale, metrics);
    const auto events = static_cast<double>(ref.gflink.events + ref.flink.events);
    const double traced_host_s = median(host_samples(traced_passes));
    metrics.push_back({"sim.events", events, "count"});
    metrics.push_back({"sim.host_ns_per_event", host_s * 1e9 / events, "ns"});
    metrics.push_back({"obs.spans", static_cast<double>(t.gflink.spans + t.flink.spans), "count"});
    metrics.push_back({"obs.trace_overhead", traced_host_s / host_s, "ratio"});
    for (const auto& [name, part] : {std::pair{"setup.engine_s", &Pass::setup_engine_s},
                                     std::pair{"setup.runtime_s", &Pass::setup_runtime_s},
                                     std::pair{"setup.service_s", &Pass::setup_service_s}}) {
      metrics.push_back({name, median(setup_samples(untraced_passes, part)), "s"});
    }
    metrics.push_back({"setup.kernels_s", kernel_registration_s(), "s"});
    const double budget = std::max(0.05, 0.05 * args.seconds);
    workload->host_layers(budget, spans, metrics);
    {
      const auto scope = spans.scope("obs/MetricsRegistry::counter");
      metrics.push_back(
          {"obs.counter_lookup_ns", counter_lookup_ns(*t.gflink.metrics, budget), "ns"});
    }
    std::printf("%s seed=%llu: %zu untraced + %zu traced passes\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), untraced_passes.size(),
                traced_passes.size());
  }

  for (const auto& m : metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // Report only: a faster baseline would read as a regression if gated.
  const double speedup =
      static_cast<double>(ref.flink.makespan) / static_cast<double>(ref.gflink.makespan);
  if (workload->paper_speedup() > 0) {
    std::printf("speedup_x = %.3f (paper ~%.1fx, relative error %+.1f%%; %s)\n", speedup,
                workload->paper_speedup(), 100.0 * (speedup / workload->paper_speedup() - 1.0),
                workload->paper_note());
  } else {
    std::printf("speedup_x = %.3f (%s)\n", speedup, workload->paper_note());
  }
  std::printf("ops attempted=%zu failed=%zu\n", attempted, failed);

  if (traced && !args.spans_out.empty() && !spans.write_json(args.spans_out)) {
    std::fprintf(stderr, "error: cannot write %s\n", args.spans_out.c_str());
    ++failed;
  }
  print_json(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}
