// gflink_sim — command-line driver for the GFlink reproduction.
//
// Runs any of the paper's workloads on a configurable simulated testbed
// and prints the Eq.-(1)-style breakdown. Examples:
//
//   gflink_sim kmeans --mode gflink --workers 10 --gpus 2 --size 210
//   gflink_sim spmv --mode cpu --workers 1 --size 8
//   gflink_sim pagerank --gpu p100 --iterations 20
//   gflink_sim wordcount --mode both --size 40
//
// Sizes are full-scale units per workload: millions of records (kmeans,
// linreg, pagerank, concomp, pointadd) or GB (spmv, wordcount).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/chrome_trace.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry/probes.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "workloads/concomp.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/linreg.hpp"
#include "workloads/pagerank.hpp"
#include "workloads/pointadd.hpp"
#include "workloads/spmv.hpp"
#include "workloads/wordcount.hpp"

namespace df = gflink::dataflow;
namespace core = gflink::core;
namespace obs = gflink::obs;
namespace sim = gflink::sim;
namespace wl = gflink::workloads;

namespace {

struct Options {
  std::string workload;
  std::string mode = "both";  // cpu | gflink | both
  wl::Testbed testbed;
  double size = 0;  // workload-specific unit; 0 = workload default
  int iterations = 0;
  bool cache = true;
  bool help = false;
  std::string trace_out;    // Chrome/Perfetto trace JSON destination
  std::string report_out;   // run-report JSON destination
  std::string flight_dump;  // flight-recorder dump destination
  bool critical_path = false;  // print the per-category breakdown

  std::string telemetry_out;      // gflink.telemetry/v1 JSONL timeline
  std::string telemetry_prom;     // Prometheus text-format snapshot
  double telemetry_period_ms = 0;  // 0 = off unless an export flag is given
  double slo_ms = 0;               // tenant latency objective for slo_burn

  bool telemetry_enabled() const {
    return !telemetry_out.empty() || !telemetry_prom.empty() || telemetry_period_ms > 0;
  }
};

// Observability accumulation across the tool's runs (both modes feed one
// report; the trace comes from the last traced engine).
obs::RunReport g_report;
std::string g_trace_json;
// The telemetry timeline spans both modes of a `--mode both` run: the
// first engine truncates the file, the second appends to it. The
// Prometheus snapshot keeps only the last (GFlink) run's series.
bool g_timeline_started = false;
std::string g_prometheus_text;

void print_usage() {
  std::printf(
      "usage: gflink_sim <workload> [options]\n"
      "\n"
      "workloads: kmeans linreg spmv pagerank concomp wordcount pointadd\n"
      "\n"
      "options:\n"
      "  --mode cpu|gflink|both   execution mode (default both)\n"
      "  --workers N              slave nodes (default 10)\n"
      "  --gpus N                 GPUs per worker (default 2)\n"
      "  --gpu MODEL              c2050 | gtx750 | k20 | p100 (default c2050)\n"
      "  --size X                 input size: millions of records, or GB for\n"
      "                           spmv/wordcount (default: the paper's mid size)\n"
      "  --iterations N           supersteps for iterative workloads\n"
      "  --scale X                simulation scale factor (default 1e-3)\n"
      "  --streams N              CUDA streams per GPU (default 4)\n"
      "  --scheduling P           locality | roundrobin | random\n"
      "  --shuffle-mode M         barrier | pipelined | one_sided exchange\n"
      "                           transport (default one_sided)\n"
      "  --spill-codec C          none | lz block codec for spilled exchange\n"
      "                           buckets (default lz)\n"
      "  --spill-tiers T          comma list from {memory,disk,dfs}: which spill\n"
      "                           tiers are enabled (default memory,disk,dfs;\n"
      "                           dfs is always on as the backstop)\n"
      "  --spill-sync             synchronous spill writes (the pre-async\n"
      "                           ablation baseline)\n"
      "  --no-cache               disable the GPU cache scheme (spmv)\n"
      "  --trace-out FILE         write a Chrome/Perfetto trace JSON of the run\n"
      "  --report-out FILE        write a machine-readable run report JSON\n"
      "  --flight-dump FILE       write the flight-recorder rings to FILE (on the\n"
      "                           first injected fault, else at exit)\n"
      "  --critical-path          print the critical-path category breakdown\n"
      "                           (implies span tracing)\n"
      "  --telemetry-out FILE     stream the live telemetry timeline to FILE\n"
      "                           (gflink.telemetry/v1, one JSONL record per\n"
      "                           sample period; enables the telemetry plane)\n"
      "  --telemetry-prom FILE    write a Prometheus text-format snapshot of the\n"
      "                           merged cluster series at exit (enables the\n"
      "                           telemetry plane; 'both' keeps the GFlink run)\n"
      "  --telemetry-period MS    sampling period in virtual milliseconds\n"
      "                           (default 1; also enables the plane)\n"
      "  --slo-ms X               tenant latency objective for the SLO burn-rate\n"
      "                           detector (0 = detector off)\n");
}

/// Read a count flag's value; prints a one-line error unless it is a
/// positive integer.
bool positive_int(const std::string& flag, const char* text, int* out) {
  *out = std::atoi(text);
  if (*out > 0) return true;
  std::fprintf(stderr, "%s must be a positive integer, got '%s'\n", flag.c_str(), text);
  return false;
}

/// Read a real-valued flag's value; prints a one-line error unless it is
/// positive.
bool positive_real(const std::string& flag, const char* text, double* out) {
  *out = std::atof(text);
  if (*out > 0) return true;
  std::fprintf(stderr, "%s must be positive, got '%s'\n", flag.c_str(), text);
  return false;
}

bool parse(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.workload = argv[1];
  if (opt.workload == "--help" || opt.workload == "-h") {
    opt.help = true;
    return true;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--mode") {
      const char* v = value();
      if (!v) return false;
      opt.mode = v;
    } else if (arg == "--workers") {
      const char* v = value();
      if (!v || !positive_int(arg, v, &opt.testbed.workers)) return false;
    } else if (arg == "--gpus") {
      const char* v = value();
      if (!v || !positive_int(arg, v, &opt.testbed.gpus_per_worker)) return false;
    } else if (arg == "--gpu") {
      const char* v = value();
      if (!v) return false;
      const std::string model = v;
      if (model == "c2050") opt.testbed.gpu_spec = gflink::gpu::DeviceSpec::c2050();
      else if (model == "gtx750") opt.testbed.gpu_spec = gflink::gpu::DeviceSpec::gtx750();
      else if (model == "k20") opt.testbed.gpu_spec = gflink::gpu::DeviceSpec::k20();
      else if (model == "p100") opt.testbed.gpu_spec = gflink::gpu::DeviceSpec::p100();
      else {
        std::fprintf(stderr, "unknown GPU model: %s\n", v);
        return false;
      }
    } else if (arg == "--size") {
      const char* v = value();
      if (!v || !positive_real(arg, v, &opt.size)) return false;
    } else if (arg == "--iterations") {
      const char* v = value();
      if (!v) return false;
      opt.iterations = std::atoi(v);
    } else if (arg == "--scale") {
      const char* v = value();
      if (!v || !positive_real(arg, v, &opt.testbed.scale)) return false;
    } else if (arg == "--streams") {
      const char* v = value();
      if (!v || !positive_int(arg, v, &opt.testbed.streams_per_gpu)) return false;
    } else if (arg == "--scheduling") {
      const char* v = value();
      if (!v) return false;
      const std::string p = v;
      if (p == "locality") opt.testbed.scheduling = core::SchedulingPolicy::LocalityAware;
      else if (p == "roundrobin") opt.testbed.scheduling = core::SchedulingPolicy::RoundRobin;
      else if (p == "random") opt.testbed.scheduling = core::SchedulingPolicy::Random;
      else {
        std::fprintf(stderr, "unknown scheduling policy: %s\n", v);
        return false;
      }
    } else if (arg == "--shuffle-mode") {
      const char* v = value();
      if (!v) return false;
      if (!gflink::shuffle::parse_shuffle_mode(v, &opt.testbed.shuffle_mode)) {
        std::fprintf(stderr, "unknown shuffle mode: %s\n", v);
        return false;
      }
    } else if (arg == "--spill-codec") {
      const char* v = value();
      if (!v) return false;
      if (!gflink::spill::parse_spill_codec(v, &opt.testbed.spill_codec)) {
        std::fprintf(stderr, "unknown spill codec: %s\n", v);
        return false;
      }
    } else if (arg == "--spill-tiers") {
      const char* v = value();
      if (!v) return false;
      opt.testbed.spill_memory_tier = false;
      opt.testbed.spill_disk_tier = false;
      std::string tiers = v;
      for (std::size_t pos = 0; pos <= tiers.size();) {
        std::size_t comma = tiers.find(',', pos);
        if (comma == std::string::npos) comma = tiers.size();
        const std::string tier = tiers.substr(pos, comma - pos);
        if (tier == "memory") opt.testbed.spill_memory_tier = true;
        else if (tier == "disk") opt.testbed.spill_disk_tier = true;
        else if (tier != "dfs") {  // dfs is the always-on backstop
          std::fprintf(stderr, "unknown spill tier: %s\n", tier.c_str());
          return false;
        }
        pos = comma + 1;
      }
    } else if (arg == "--spill-sync") {
      opt.testbed.spill_async = false;
    } else if (arg == "--no-cache") {
      opt.cache = false;
    } else if (arg == "--trace-out") {
      const char* v = value();
      if (!v) return false;
      opt.trace_out = v;
    } else if (arg == "--report-out") {
      const char* v = value();
      if (!v) return false;
      opt.report_out = v;
    } else if (arg == "--flight-dump") {
      const char* v = value();
      if (!v) return false;
      opt.flight_dump = v;
    } else if (arg == "--critical-path") {
      opt.critical_path = true;
    } else if (arg == "--telemetry-out") {
      const char* v = value();
      if (!v) return false;
      opt.telemetry_out = v;
    } else if (arg == "--telemetry-prom") {
      const char* v = value();
      if (!v) return false;
      opt.telemetry_prom = v;
    } else if (arg == "--telemetry-period") {
      const char* v = value();
      if (!v) return false;
      opt.telemetry_period_ms = std::atof(v);
      if (opt.telemetry_period_ms <= 0) {
        std::fprintf(stderr, "--telemetry-period must be positive\n");
        return false;
      }
    } else if (arg == "--slo-ms") {
      const char* v = value();
      if (!v) return false;
      opt.slo_ms = std::atof(v);
    } else if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

template <typename ConfigT, typename ResultT>
wl::RunResult run_driver(sim::Co<ResultT> (*driver)(df::Engine&, core::GFlinkRuntime*,
                                                    const wl::Testbed&, wl::Mode,
                                                    const ConfigT&),
                         const Options& opt, wl::Mode mode, const ConfigT& cfg) {
  df::Engine engine(wl::make_engine_config(opt.testbed));
  if (!opt.flight_dump.empty()) {
    engine.cluster().flight().set_dump_path(opt.flight_dump);
  }
  std::unique_ptr<core::GFlinkRuntime> runtime;
  if (mode == wl::Mode::Gpu) {
    wl::ensure_kernels_registered();
    runtime = std::make_unique<core::GFlinkRuntime>(engine, wl::make_gpu_config(opt.testbed));
  }

  namespace tel = gflink::obs::telemetry;
  std::unique_ptr<tel::TelemetryPlane> plane;
  std::ofstream timeline;
  if (opt.telemetry_enabled()) {
    tel::TelemetryConfig tcfg;
    const double period_ms = opt.telemetry_period_ms > 0 ? opt.telemetry_period_ms : 1.0;
    tcfg.period = static_cast<sim::Duration>(period_ms * 1e6);
    tcfg.slo_ms = opt.slo_ms;
    plane = std::make_unique<tel::TelemetryPlane>(engine.sim(), engine.cluster(), tcfg);
    tel::install_engine_probes(*plane, engine);
    if (runtime) tel::install_runtime_probes(*plane, *runtime);
    plane->attach_flight(&engine.cluster().flight());
    if (!opt.telemetry_out.empty()) {
      timeline.open(opt.telemetry_out,
                    g_timeline_started ? std::ios::app : std::ios::trunc);
      if (!timeline) {
        std::fprintf(stderr, "error: could not open %s\n", opt.telemetry_out.c_str());
      } else {
        plane->set_timeline_sink(&timeline);
        g_timeline_started = true;
      }
    }
  }

  ResultT result{};
  engine.run([&](df::Engine& eng) -> sim::Co<void> {
    if (plane) plane->start();
    result = co_await driver(eng, runtime.get(), opt.testbed, mode, cfg);
    if (plane) plane->stop();
  });
  if (plane) {
    if (!opt.telemetry_prom.empty()) g_prometheus_text = plane->prometheus_text();
    for (const auto& ev : plane->aggregator().events()) {
      std::printf("[%s] health event @%.3f ms: %s node=%d %s%s%s value=%.2f\n",
                  wl::mode_name(mode), static_cast<double>(ev.at) / 1e6, ev.detector.c_str(),
                  ev.node, ev.series.c_str(), ev.tenant.empty() ? "" : " tenant=",
                  ev.tenant.c_str(), ev.value);
    }
  }
  // Capture observability state before the engine is torn down.
  g_report.virtual_ns += engine.now();
  engine.export_metrics(g_report.metrics);
  if (runtime) runtime->export_metrics(g_report.metrics);
  const obs::SpanStore& spans = engine.cluster().spans();
  if (!opt.trace_out.empty()) {
    const sim::Tracer& tracer = engine.cluster().tracer();
    g_trace_json = obs::chrome_trace_json(tracer, &engine.cluster().metrics(), engine.now(),
                                          &spans);
    g_report.capture_lanes(tracer, engine.now());
  }
  if (spans.retain()) {
    // Both modes run the analyses; the report keeps the last (GFlink) pass.
    g_report.capture_spans(spans);
    if (opt.critical_path) {
      const obs::CriticalPath cp = obs::extract_critical_path(spans);
      std::printf("\n[%s] critical path: %.2f s full-scale\n", wl::mode_name(mode),
                  wl::RunResult::full_seconds(cp.total, opt.testbed.scale));
      for (std::size_t c = 0; c < obs::kSpanCategories; ++c) {
        if (cp.by_category[c] == 0) continue;
        std::printf("  %-8s %10.2f s  %5.1f%%\n",
                    obs::span_category_name(static_cast<obs::SpanCategory>(c)),
                    wl::RunResult::full_seconds(cp.by_category[c], opt.testbed.scale),
                    cp.total > 0 ? 100.0 * static_cast<double>(cp.by_category[c]) /
                                       static_cast<double>(cp.total)
                                 : 0.0);
      }
    }
  }
  // A fault already snapshotted the rings; otherwise dump the final state
  // so the artifact exists for healthy runs too.
  obs::FlightRecorder& flight = engine.cluster().flight();
  if (!opt.flight_dump.empty() && flight.dumps() == 0) {
    if (!flight.dump_now(opt.flight_dump)) {
      std::fprintf(stderr, "error: could not write flight dump to %s\n",
                   opt.flight_dump.c_str());
    }
  }
  return result.run;
}

void report(const Options& opt, wl::Mode mode, const wl::RunResult& run) {
  const double scale = opt.testbed.scale;
  std::printf("\n[%s]\n", wl::mode_name(mode));
  std::printf("  total          %10.2f s (full-scale)\n",
              wl::RunResult::full_seconds(run.total, scale));
  std::printf("  submission     %10.2f s\n",
              wl::RunResult::full_seconds(run.stats.running_at - run.stats.submitted_at, scale));
  if (run.iterations.size() > 1) {
    std::printf("  iterations    ");
    for (auto d : run.iterations) {
      std::printf(" %.2f", wl::RunResult::full_seconds(d, scale));
    }
    std::printf("  (s each)\n");
  }
  std::printf("  io read        %10.2f GB   io written %10.2f GB\n",
              static_cast<double>(run.stats.io_bytes_read) / scale / 1e9,
              static_cast<double>(run.stats.io_bytes_written) / scale / 1e9);
  std::printf("  shuffled       %10.2f GB over %zu stages\n",
              static_cast<double>(run.stats.shuffle_bytes) / scale / 1e9,
              run.stats.stages.size());
  std::printf("  checksum       %10.4g\n", run.checksum);
}

int run_workload(const Options& opt) {
  const auto wall_begin = std::chrono::steady_clock::now();
  std::vector<wl::Mode> to_run;
  if (opt.mode == "cpu") to_run = {wl::Mode::Cpu};
  else if (opt.mode == "gflink") to_run = {wl::Mode::Gpu};
  else if (opt.mode == "both") to_run = {wl::Mode::Cpu, wl::Mode::Gpu};
  else {
    std::fprintf(stderr, "unknown mode: %s\n", opt.mode.c_str());
    return 2;
  }
  std::vector<double> totals;
  for (wl::Mode mode : to_run) {
    wl::RunResult run;
    if (opt.workload == "kmeans") {
      wl::kmeans::Config cfg;
      if (opt.size > 0) cfg.points = static_cast<std::uint64_t>(opt.size * 1e6);
      if (opt.iterations > 0) cfg.iterations = opt.iterations;
      run = run_driver(&wl::kmeans::run, opt, mode, cfg);
    } else if (opt.workload == "linreg") {
      wl::linreg::Config cfg;
      if (opt.size > 0) cfg.samples = static_cast<std::uint64_t>(opt.size * 1e6);
      if (opt.iterations > 0) cfg.iterations = opt.iterations;
      run = run_driver(&wl::linreg::run, opt, mode, cfg);
    } else if (opt.workload == "spmv") {
      wl::spmv::Config cfg;
      if (opt.size > 0) cfg.matrix_bytes = static_cast<std::uint64_t>(opt.size * (1ULL << 30));
      if (opt.iterations > 0) cfg.iterations = opt.iterations;
      cfg.gpu_cache = opt.cache;
      run = run_driver(&wl::spmv::run, opt, mode, cfg);
    } else if (opt.workload == "pagerank") {
      wl::pagerank::Config cfg;
      if (opt.size > 0) cfg.pages = static_cast<std::uint64_t>(opt.size * 1e6);
      if (opt.iterations > 0) cfg.iterations = opt.iterations;
      run = run_driver(&wl::pagerank::run, opt, mode, cfg);
    } else if (opt.workload == "concomp") {
      wl::concomp::Config cfg;
      if (opt.size > 0) cfg.vertices = static_cast<std::uint64_t>(opt.size * 1e6);
      if (opt.iterations > 0) cfg.iterations = opt.iterations;
      run = run_driver(&wl::concomp::run, opt, mode, cfg);
    } else if (opt.workload == "wordcount") {
      wl::wordcount::Config cfg;
      if (opt.size > 0) cfg.text_bytes = static_cast<std::uint64_t>(opt.size * (1ULL << 30));
      run = run_driver(&wl::wordcount::run, opt, mode, cfg);
    } else if (opt.workload == "pointadd") {
      wl::pointadd::Config cfg;
      if (opt.size > 0) cfg.points = static_cast<std::uint64_t>(opt.size * 1e6);
      if (opt.iterations > 0) cfg.iterations = opt.iterations;
      run = run_driver(&wl::pointadd::run, opt, mode, cfg);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n\n", opt.workload.c_str());
      print_usage();
      return 2;
    }
    report(opt, mode, run);
    totals.push_back(wl::RunResult::full_seconds(run.total, opt.testbed.scale));
  }
  if (totals.size() == 2 && totals[1] > 0) {
    std::printf("\nspeedup (GFlink over Flink): %.2fx\n", totals[0] / totals[1]);
  }

  if (!opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out, std::ios::binary);
    if (!out || !(out << g_trace_json)) {
      std::fprintf(stderr, "error: could not write trace to %s\n", opt.trace_out.c_str());
      return 1;
    }
    std::printf("trace written: %s (load in ui.perfetto.dev or chrome://tracing)\n",
                opt.trace_out.c_str());
  }
  if (!opt.report_out.empty()) {
    g_report.name = opt.workload;
    g_report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_begin).count();
    g_report.set_config("workload", obs::Json(opt.workload));
    g_report.set_config("mode", obs::Json(opt.mode));
    g_report.set_config("workers", obs::Json(opt.testbed.workers));
    g_report.set_config("gpus_per_worker", obs::Json(opt.testbed.gpus_per_worker));
    g_report.set_config("gpu", obs::Json(opt.testbed.gpu_spec.name));
    g_report.set_config("scale", obs::Json(opt.testbed.scale));
    obs::add_derived_gflink_metrics(g_report.metrics);
    if (!g_report.write(opt.report_out)) {
      std::fprintf(stderr, "error: could not write report to %s\n", opt.report_out.c_str());
      return 1;
    }
    std::printf("run report written: %s\n", opt.report_out.c_str());
  }
  if (!opt.flight_dump.empty()) {
    std::printf("flight dump written: %s\n", opt.flight_dump.c_str());
  }
  if (!opt.telemetry_out.empty() && g_timeline_started) {
    std::printf("telemetry timeline written: %s\n", opt.telemetry_out.c_str());
  }
  if (!opt.telemetry_prom.empty()) {
    std::ofstream out(opt.telemetry_prom, std::ios::binary);
    if (!out || !(out << g_prometheus_text)) {
      std::fprintf(stderr, "error: could not write Prometheus snapshot to %s\n",
                   opt.telemetry_prom.c_str());
      return 1;
    }
    std::printf("telemetry snapshot written: %s\n", opt.telemetry_prom.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    print_usage();
    return 2;
  }
  if (opt.help) {
    print_usage();
    return 0;
  }
  // Tracing costs memory proportional to the span count; enable it only
  // when a trace or the critical-path analysis was requested (reports get
  // the DAG sections whenever a traced run produced them).
  if (!opt.trace_out.empty() || opt.critical_path) opt.testbed.trace = true;
  std::printf("gflink_sim: %s on %d workers x %d %s, scale %.0e", opt.workload.c_str(),
              opt.testbed.workers, opt.testbed.gpus_per_worker, opt.testbed.gpu_spec.name.c_str(),
              opt.testbed.scale);
  std::printf("\n");
  return run_workload(opt);
}
