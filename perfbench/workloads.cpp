// NOLINTBEGIN(cppcoreguidelines-avoid-reference-coroutine-parameters)
// Coroutines in this file are co_awaited (or joined through a WaitGroup)
// inside Engine::run, whose frame owns every referenced object.
//
// The four benchmark workloads. Each pass sets the testbed up, then drives
// the public workload drivers (wl::<workload>::run, or the JobService for
// the multi-tenant mix) once in Flink (CPU) mode and once in GFlink mode.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>

#include "harness.hpp"
#include "service/job_service.hpp"
#include "sim/closed_loop.hpp"
#include "sim/random.hpp"
#include "workloads/kmeans.hpp"
#include "workloads/pagerank.hpp"
#include "workloads/pointadd.hpp"
#include "workloads/records.hpp"
#include "workloads/wordcount.hpp"

namespace perfbench {

namespace {

namespace mem = gflink::mem;
namespace svc = gflink::service;

/// Take 0-255 `unit`s off a nominal input size, drawn from the seed, so that
/// each seed has its own input size as well as its own content. A unit is
/// one record (or word) at testbed scale: too little to move a block
/// boundary, enough that no two seeds share a makespan by accident.
std::uint64_t seeded_size(std::uint64_t nominal, std::uint64_t unit, std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x5eedc0ffee123457ULL;
  return nominal - unit * (sim::splitmix64(state) % 256);
}

/// An engine (and in GFlink mode its runtime), set up kSetupRepeats times
/// with each repeat timed into `pass`; the last copy is kept.
struct Rig {
  std::unique_ptr<df::Engine> engine;
  std::unique_ptr<core::GFlinkRuntime> runtime;

  void reset() {
    runtime.reset();  // the runtime refers to the engine
    engine.reset();
  }
};

using EngineTweak = void (*)(df::EngineConfig&);

Rig set_up(const wl::Testbed& tb, wl::Mode mode, EngineTweak tweak, Pass& pass,
           HostSpans& spans) {
  const auto scope = spans.scope(std::string("setup/") + wl::mode_name(mode));
  df::EngineConfig config = wl::make_engine_config(tb);
  if (tweak != nullptr) tweak(config);
  if (mode == wl::Mode::Gpu) kernel_registration_s();
  Rig rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.reset();
    auto t0 = Clock::now();
    rig.engine = std::make_unique<df::Engine>(config);
    pass.setup_engine_s[static_cast<std::size_t>(i)] += seconds_since(t0);
    if (mode == wl::Mode::Gpu) {
      t0 = Clock::now();
      rig.runtime = std::make_unique<core::GFlinkRuntime>(*rig.engine, wl::make_gpu_config(tb));
      pass.setup_runtime_s[static_cast<std::size_t>(i)] += seconds_since(t0);
    }
  }
  return rig;
}

/// Read what a finished run left behind; traced runs also export the
/// registries and walk the critical path.
void finish_run(Rig& rig, bool traced, ModeRun& out, HostSpans& spans) {
  out.events = rig.engine->sim().events_processed();
  out.live_processes = rig.engine->sim().live_processes();
  if (!traced) return;
  const auto scope = spans.scope("obs/export");
  out.metrics = std::make_unique<obs::MetricsRegistry>();
  rig.engine->export_metrics(*out.metrics);
  if (rig.runtime) rig.runtime->export_metrics(*out.metrics);
  out.cp = obs::extract_critical_path(rig.engine->cluster().spans());
  out.spans = rig.engine->cluster().spans().recorded();
}

/// The critical path of a traced run must account for `expected` exactly,
/// and in Flink mode no instant may land in a GPU category.
void check_critical_path(const ModeRun& run, sim::Duration expected, bool flink,
                         std::vector<std::string>& errors) {
  sim::Duration sum = 0;
  for (const sim::Duration d : run.cp.by_category) sum += d;
  const char* mode = flink ? "flink" : "gflink";
  if (sum != run.cp.total || run.cp.total != expected) {
    errors.push_back(std::string("critical path of ") + mode + " sums to " +
                     std::to_string(sum) + " ns, total " + std::to_string(run.cp.total) +
                     " ns, expected " + std::to_string(expected) + " ns");
  }
  if (flink) {
    for (const auto c : {obs::SpanCategory::H2D, obs::SpanCategory::Kernel,
                         obs::SpanCategory::D2H}) {
      if (run.cp.by_category[static_cast<std::size_t>(c)] != 0) {
        errors.push_back(std::string("flink critical path holds GPU time in ") +
                         obs::span_category_name(c));
      }
    }
  }
}

void check_live(const ModeRun& run, const char* mode, std::vector<std::string>& errors) {
  if (run.live_processes != 0) {
    errors.push_back(std::string(mode) + " run left " + std::to_string(run.live_processes) +
                     " processes parked");
  }
}

// ---- Batch workloads -------------------------------------------------------

template <typename Config, typename Result>
using Driver = sim::Co<Result> (*)(df::Engine&, core::GFlinkRuntime*, const wl::Testbed&,
                                   wl::Mode, const Config&);

/// One mode of a batch workload: set up, engine.run the driver, collect.
template <typename Config, typename Result>
void run_batch_mode(Driver<Config, Result> driver, const Config& config, wl::Mode mode,
                    bool traced, EngineTweak tweak, Pass& pass, HostSpans& spans) {
  wl::Testbed tb;
  tb.trace = traced;
  Rig rig = set_up(tb, mode, tweak, pass, spans);
  ModeRun& out = mode == wl::Mode::Gpu ? pass.gflink : pass.flink;
  Result result{};
  {
    const auto scope = spans.scope(std::string(wl::mode_name(mode)) + "/engine.run");
    core::GFlinkRuntime* runtime = rig.runtime.get();
    const auto t0 = Clock::now();
    rig.engine->run([&](df::Engine& engine) -> sim::Co<void> {
      result = co_await driver(engine, runtime, tb, mode, config);
    });
    out.host_s = seconds_since(t0);
  }
  out.makespan = result.run.total;
  out.checksum = result.run.checksum;
  finish_run(rig, traced, out, spans);
}

/// Both modes, then the pass-level checks. `rel_tol` bounds the relative
/// difference of the CPU and GFlink checksums (0 = bit-equal).
template <typename Config, typename Result>
Pass run_batch_pass(Driver<Config, Result> driver, const Config& config, bool traced,
                    EngineTweak tweak, double rel_tol, HostSpans& spans) {
  Pass pass;
  run_batch_mode(driver, config, wl::Mode::Cpu, traced, tweak, pass, spans);
  run_batch_mode(driver, config, wl::Mode::Gpu, traced, tweak, pass, spans);
  const double a = pass.flink.checksum;
  const double b = pass.gflink.checksum;
  if (!(std::abs(a - b) <= rel_tol * std::max(std::abs(a), std::abs(b)))) {
    char msg[160];
    std::snprintf(msg, sizeof msg, "checksums disagree: flink %.17g, gflink %.17g", a, b);
    pass.errors.emplace_back(msg);
  }
  check_live(pass.flink, "flink", pass.errors);
  check_live(pass.gflink, "gflink", pass.errors);
  if (traced) {
    check_critical_path(pass.flink, pass.flink.makespan, true, pass.errors);
    check_critical_path(pass.gflink, pass.gflink.makespan, false, pass.errors);
  }
  return pass;
}

/// A batch of `n` records made by `make(i)`, in AoS layout.
template <typename T, typename Make>
mem::RecordBatch make_batch(const mem::StructDesc& desc, std::size_t n, Make make) {
  mem::RecordBatch batch(&desc);
  for (std::size_t i = 0; i < n; ++i) batch.append(make(i));
  return batch;
}

/// Mrec/s of a generator producing `n` records per call.
template <typename Gen>
double gen_mrec_per_s(std::size_t n, double budget_s, Gen gen) {
  const double s = median_call_s(budget_s, [&] {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += gen(i);
    sink = sum;
  });
  return static_cast<double>(n) / s / 1e6;
}

template <typename T>
std::uint64_t key_of(const std::byte* record, std::size_t offset) {
  T key;
  std::memcpy(&key, record + offset, sizeof key);
  return static_cast<std::uint64_t>(key);
}

constexpr std::size_t kMicroRecords = 200'000;

class PagerankSpill final : public Workload {
 public:
  explicit PagerankSpill(std::uint64_t seed) {
    config_.pages = seeded_size(25'000'000, 1000, seed);
    config_.iterations = 10;
    config_.zipf_shift = 1;
    config_.seed = seed;
  }

  Pass run_pass(bool traced, HostSpans& spans) override {
    return run_batch_pass(&wl::pagerank::run, config_, traced, &squeeze, 1e-6, spans);
  }

  void host_layers(double budget_s, HostSpans& spans, Metrics& out) override {
    const auto n = static_cast<std::uint64_t>(static_cast<double>(config_.pages) * scale());
    const auto page = [&](std::size_t i) {
      return wl::pagerank::page_at(i, n, config_.seed, config_.zipf_shift);
    };
    {
      const auto scope = spans.scope("workloads/pagerank::page_at");
      const double rate =
          gen_mrec_per_s(kMicroRecords, budget_s, [&](std::size_t i) { return page(i).out[0]; });
      out.push_back({"workloads.gen_mrec_per_s", rate, "Mrec/s"});
    }
    // The exchange carries kOutDegree rank messages per page.
    const auto pages = make_batch<wl::Page>(wl::page_desc(), kMicroRecords / wl::kOutDegree, page);
    const auto msgs =
        make_batch<wl::RankMsg>(wl::rank_msg_desc(), kMicroRecords, [&](std::size_t i) {
          const wl::Page& p = pages.aos_view<wl::Page>()[i / wl::kOutDegree];
          return wl::RankMsg{static_cast<std::uint32_t>(p.out[i % wl::kOutDegree]), 1.0f};
        });
    {
      const auto scope = spans.scope("shuffle/ShuffleSession::partition");
      const df::KeyFn key = [](const std::byte* r) {
        return key_of<std::uint32_t>(r, offsetof(wl::RankMsg, page));
      };
      const df::CombineFn combine = [](std::byte* acc, const std::byte* r) {
        reinterpret_cast<wl::RankMsg*>(acc)->rank +=
            reinterpret_cast<const wl::RankMsg*>(r)->rank;
      };
      out.push_back({"shuffle.partition_mb_per_s",
                     partition_mb_per_s(msgs, key, combine, budget_s), "MB/s"});
    }
    {
      const auto scope = spans.scope("mem/RecordBatch::to_layout");
      out.push_back({"mem.to_layout_mb_per_s", to_layout_mb_per_s(pages, budget_s), "MB/s"});
    }
  }

  double paper_speedup() const override { return 3.5; }
  const char* paper_note() const override {
    return "indicative: Zipf-skewed links and squeezed spill budgets differ from the paper";
  }

 private:
  // The receiver budget and spill tiers are squeezed (as in the spill
  // ablation) so that most, but not all, of each exchange spills, and the
  // memory, disk and DFS rungs of the spill ladder all carry blocks.
  static void squeeze(df::EngineConfig& config) {
    config.shuffle.receiver_budget_bytes = 32 * 1024;
    config.shuffle.spill.memory_tier_bytes = 4 * 1024;
    config.shuffle.spill.disk_tier_bytes = 12 * 1024;
  }

  wl::pagerank::Config config_;
};

class Kmeans final : public Workload {
 public:
  explicit Kmeans(std::uint64_t seed) {
    config_.points = seeded_size(270'000'000, 1000, seed);
    config_.iterations = 10;
    config_.seed = seed;
  }

  Pass run_pass(bool traced, HostSpans& spans) override {
    return run_batch_pass(&wl::kmeans::run, config_, traced, nullptr, 1e-6, spans);
  }

  void host_layers(double budget_s, HostSpans& spans, Metrics& out) override {
    const auto point = [&](std::size_t i) { return wl::kmeans::point_at(i, config_.seed); };
    {
      const auto scope = spans.scope("workloads/kmeans::point_at");
      const double rate =
          gen_mrec_per_s(kMicroRecords / 4, budget_s, [&](std::size_t i) { return point(i).x[0]; });
      out.push_back({"workloads.gen_mrec_per_s", rate, "Mrec/s"});
    }
    const auto points = make_batch<wl::Point>(wl::point_desc(), kMicroRecords / 4, point);
    const auto aggs = make_batch<wl::ClusterAgg>(
        wl::cluster_agg_desc(), kMicroRecords / 4, [&](std::size_t i) {
          const wl::Point& p = points.aos_view<wl::Point>()[i];
          wl::ClusterAgg a{};
          a.cluster = i % wl::kClusters;
          std::memcpy(a.sum, p.x, sizeof a.sum);
          a.count = 1;
          return a;
        });
    {
      const auto scope = spans.scope("shuffle/ShuffleSession::partition");
      const df::KeyFn key = [](const std::byte* r) {
        return key_of<std::uint64_t>(r, offsetof(wl::ClusterAgg, cluster));
      };
      const df::CombineFn combine = [](std::byte* acc, const std::byte* r) {
        auto* a = reinterpret_cast<wl::ClusterAgg*>(acc);
        const auto* b = reinterpret_cast<const wl::ClusterAgg*>(r);
        for (int j = 0; j < wl::kDim; ++j) a->sum[j] += b->sum[j];
        a->count += b->count;
      };
      out.push_back({"shuffle.partition_mb_per_s",
                     partition_mb_per_s(aggs, key, combine, budget_s), "MB/s"});
    }
    {
      const auto scope = spans.scope("mem/RecordBatch::to_layout");
      out.push_back({"mem.to_layout_mb_per_s", to_layout_mb_per_s(points, budget_s), "MB/s"});
    }
  }

  double paper_speedup() const override { return 5.0; }
  const char* paper_note() const override { return "paper Fig. 5a/6a, KMeans"; }

 private:
  wl::kmeans::Config config_;
};

class Wordcount final : public Workload {
 public:
  explicit Wordcount(std::uint64_t seed) {
    config_.text_bytes = seeded_size(56ULL << 30, 12'000, seed);
    config_.seed = seed;
  }

  Pass run_pass(bool traced, HostSpans& spans) override {
    return run_batch_pass(&wl::wordcount::run, config_, traced, nullptr, 0.0, spans);
  }

  void host_layers(double budget_s, HostSpans& spans, Metrics& out) override {
    // The text generator is private to the WordCount driver, so its cost
    // stays inside host_s; the metric is reported as 0.
    out.push_back({"workloads.gen_mrec_per_s", 0.0, "Mrec/s"});
    const sim::ZipfTable zipf(config_.vocabulary, config_.zipf_s);
    const auto words = make_batch<wl::WordCount>(
        wl::word_count_desc(), kMicroRecords, [&](std::size_t i) {
          std::uint64_t h = i * 1000003 + config_.seed;
          const double u = static_cast<double>(sim::splitmix64(h) >> 11) * 0x1.0p-53;
          return wl::WordCount{static_cast<std::uint64_t>(zipf.sample_u(u)), 1};
        });
    {
      const auto scope = spans.scope("shuffle/ShuffleSession::partition");
      const df::KeyFn key = [](const std::byte* r) {
        return key_of<std::uint64_t>(r, offsetof(wl::WordCount, word));
      };
      const df::CombineFn combine = [](std::byte* acc, const std::byte* r) {
        reinterpret_cast<wl::WordCount*>(acc)->count +=
            reinterpret_cast<const wl::WordCount*>(r)->count;
      };
      out.push_back({"shuffle.partition_mb_per_s",
                     partition_mb_per_s(words, key, combine, budget_s), "MB/s"});
    }
    {
      const auto scope = spans.scope("mem/RecordBatch::to_layout");
      out.push_back({"mem.to_layout_mb_per_s", to_layout_mb_per_s(words, budget_s), "MB/s"});
    }
  }

  double paper_speedup() const override { return 1.1; }
  const char* paper_note() const override { return "paper Fig. 5c/6c, WordCount"; }

 private:
  wl::wordcount::Config config_;
};

// ---- Multi-tenant mix -------------------------------------------------------

/// One submission of the mix: a PointAdd job over `points` records for
/// `iterations` passes. One-shot jobs (1 pass) read a fresh input and fill
/// the GPU cache past the tenant quota; repeated jobs re-read a small
/// per-tenant input, so their later passes hit the cache.
struct JobSpec {
  std::uint64_t points = 0;
  int iterations = 1;
  std::uint64_t input_seed = 0;
};

struct TenantLoad {
  svc::TenantConfig config;
  int clients = 0;
};

class Multitenant final : public Workload {
 public:
  explicit Multitenant(std::uint64_t seed) : seed_(seed) {
    // Gold pays for twice the share: double DRR weight, double GPU cache
    // quota and stream priority. Clients are in the weight ratio, so every
    // tenant keeps a backlog until the mix drains.
    tenants_ = {
        {svc::TenantConfig{"gold", 2.0, 0, 2 * kQuota, 1}, 4},
        {svc::TenantConfig{"silver", 1.0, 0, kQuota, 0}, 2},
        {svc::TenantConfig{"bronze", 1.0, 0, kQuota, 0}, 2},
    };
    // Every client runs the same multiset of jobs, in an order and over
    // inputs drawn from the seed: the total work is the same for every
    // seed, so seeds move the figures only through order and content.
    std::uint64_t state = seed ^ 0x6d697874656e616eULL;
    mix_.resize(tenants_.size());
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      const std::uint64_t tenant_input = seed * 31 + t + 1;
      mix_[t].resize(static_cast<std::size_t>(tenants_[t].clients));
      for (auto& client : mix_[t]) {
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const std::uint64_t points = kJobPoints[r % kJobPoints.size()];
          const bool one_shot = points >= 8'000;
          client.push_back(JobSpec{points, one_shot ? 1 : 3,
                                   one_shot ? sim::splitmix64(state) : tenant_input});
        }
        for (std::size_t i = client.size() - 1; i > 0; --i) {
          std::swap(client[i], client[sim::splitmix64(state) % (i + 1)]);
        }
      }
    }
  }

  Pass run_pass(bool traced, HostSpans& spans) override {
    Pass pass;
    std::vector<JobOutcome> flink_jobs;
    run_mix(wl::Mode::Cpu, traced, pass, pass.flink, flink_jobs, spans);
    run_mix(wl::Mode::Gpu, traced, pass, pass.gflink, pass.jobs, spans);
    check_mix(flink_jobs, "flink", pass.errors);
    pass.share_err = check_mix(pass.jobs, "gflink", pass.errors);
    if (pass.flink.checksum != pass.gflink.checksum) {
      pass.errors.push_back("flink and gflink mixes counted different record totals");
    }
    check_live(pass.flink, "flink", pass.errors);
    check_live(pass.gflink, "gflink", pass.errors);
    if (traced) {
      // Every job and every queue wait is a root of the span DAG, so the
      // walked categories sum to the total job latency, not to the drain.
      check_critical_path(pass.flink, total_latency(flink_jobs), true, pass.errors);
      check_critical_path(pass.gflink, total_latency(pass.jobs), false, pass.errors);
    }
    return pass;
  }

  void host_layers(double budget_s, HostSpans& spans, Metrics& out) override {
    const auto pt = [this](std::size_t i) { return wl::pointadd::pt_at(i, seed_); };
    {
      const auto scope = spans.scope("workloads/pointadd::pt_at");
      const double rate =
          gen_mrec_per_s(kMicroRecords, budget_s, [&](std::size_t i) { return pt(i).x; });
      out.push_back({"workloads.gen_mrec_per_s", rate, "Mrec/s"});
    }
    // PointAdd is a map: the mix has no exchange to partition.
    out.push_back({"shuffle.partition_mb_per_s", 0.0, "MB/s"});
    const auto pts = make_batch<wl::Pt>(wl::pt_desc(), kMicroRecords, pt);
    const auto scope = spans.scope("mem/RecordBatch::to_layout");
    out.push_back({"mem.to_layout_mb_per_s", to_layout_mb_per_s(pts, budget_s), "MB/s"});
  }

  double paper_speedup() const override { return 0.0; }
  const char* paper_note() const override {
    return "unvalidated: the paper has no multi-tenant reference";
  }

 private:
  static constexpr int kRequestsPerClient = 128;  // 8 clients -> 1024 jobs
  // Job sizes (records at testbed scale), cycled through per client:
  // one-shot jobs of 8k-32k records and 3-pass repeated jobs of 2k-4k.
  static constexpr std::array<std::uint64_t, 8> kJobPoints{8'000,  16'000, 32'000, 16'000,
                                                           2'000,  4'000,  2'000,  4'000};
  static constexpr std::uint64_t kQuota = 12 * 1024;  // per device, testbed scale
  static constexpr int kPartitions = 4;

  static sim::Duration total_latency(const std::vector<JobOutcome>& jobs) {
    sim::Duration sum = 0;
    for (const auto& j : jobs) sum += j.completed - j.enqueued;
    return sum;
  }

  /// Every job completed with the right count, and each tenant's share of
  /// the jobs completed while all tenants still had work is within 10% of
  /// its weight share. Returns the largest |share - weight share|.
  double check_mix(const std::vector<JobOutcome>& jobs, const char* mode,
                   std::vector<std::string>& errors) const {
    const auto bad = std::count_if(jobs.begin(), jobs.end(), [](const auto& j) { return !j.ok; });
    if (bad > 0) {
      errors.push_back(std::string(mode) + " mix: " + std::to_string(bad) +
                       " jobs rejected, cancelled or wrong");
    }
    const auto shares = contended_shares(jobs);
    double max_err = 0.0;
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      const double want = weight_share(t);
      const double err = std::abs(shares[t] - want);
      max_err = std::max(max_err, err);
      if (err > 0.1 * want) {
        char msg[160];
        std::snprintf(msg, sizeof msg, "%s mix: tenant %s share %.3f, weight share %.3f", mode,
                      tenants_[t].config.name.c_str(), shares[t], want);
        errors.emplace_back(msg);
      }
    }
    return max_err;
  }

  double weight_share(std::size_t t) const {
    double total = 0.0;
    for (const auto& l : tenants_) total += l.config.weight;
    return tenants_[t].config.weight / total;
  }

  /// Per-tenant share of the jobs completed up to the first instant one
  /// tenant ran out of work (the window in which DRR order decides).
  std::vector<double> contended_shares(const std::vector<JobOutcome>& jobs) const {
    std::vector<sim::Time> last(tenants_.size(), 0);
    for (const auto& j : jobs) {
      last[static_cast<std::size_t>(j.tenant)] =
          std::max(last[static_cast<std::size_t>(j.tenant)], j.completed);
    }
    const sim::Time window = *std::min_element(last.begin(), last.end());
    std::vector<double> count(tenants_.size(), 0.0);
    double total = 0.0;
    for (const auto& j : jobs) {
      if (j.completed > window) continue;
      count[static_cast<std::size_t>(j.tenant)] += 1.0;
      total += 1.0;
    }
    for (double& c : count) c = total > 0 ? c / total : 0.0;
    return count;
  }

  /// One job of the mix: PointAdd over a generated input, `iterations`
  /// passes over the materialised copy; `counted` receives the records.
  static sim::Co<void> pointadd_job(df::Engine& engine, df::Job& job, JobSpec spec,
                                    wl::Mode mode, std::shared_ptr<std::uint64_t> counted) {
    auto source = df::DataSet<wl::Pt>::from_generator(
        engine, &wl::pt_desc(), kPartitions,
        [n = spec.points, seed = spec.input_seed](int part, std::vector<wl::Pt>& rows) {
          for (auto i = static_cast<std::uint64_t>(part); i < n; i += kPartitions) {
            rows.push_back(wl::pointadd::pt_at(i, seed));
          }
        });
    const auto input = df::DataSet<wl::Pt>::from_handle(engine, co_await source.materialize(job));
    for (int iter = 0; iter < spec.iterations; ++iter) {
      const auto added = wl::pointadd::mapper(input, mode, static_cast<std::uint64_t>(iter));
      *counted += co_await added.count(job);
    }
  }

  /// One tenant's closed loop: each client submits its next job only after
  /// the previous one finished. `outcomes` holds this tenant's slots,
  /// client-major.
  static sim::Co<void> tenant_loop(df::Engine& engine, svc::JobService& service, wl::Mode mode,
                                   int tenant, const TenantLoad& load,
                                   const std::vector<std::vector<JobSpec>>& clients,
                                   JobOutcome* outcomes, std::uint64_t& records,
                                   sim::WaitGroup& join) {
    co_await sim::run_closed_loop(
        engine.sim(), load.clients, kRequestsPerClient, 0,
        [&](const sim::ClosedLoopClient& c) -> sim::Co<void> {
          const JobSpec spec =
              clients[static_cast<std::size_t>(c.client)][static_cast<std::size_t>(c.request)];
          JobOutcome& out = outcomes[c.client * kRequestsPerClient + c.request];
          out.tenant = tenant;
          auto counted = std::make_shared<std::uint64_t>(0);
          const std::string name = load.config.name + "-" + std::to_string(c.client) + "-" +
                                   std::to_string(c.request);
          auto ticket = service.submit(load.config.name, name, 1.0,
                                       [&engine, spec, mode, counted](df::Job& job) {
                                         return pointadd_job(engine, job, spec, mode, counted);
                                       });
          co_await ticket->wait();
          out.enqueued = ticket->enqueued_at;
          out.dispatched = ticket->dispatched_at;
          out.completed = ticket->completed_at;
          const auto expected = spec.points * static_cast<std::uint64_t>(spec.iterations);
          out.ok = ticket->state() == svc::TicketState::Completed && *counted == expected;
          records += *counted;
        });
    join.done();
  }

  void run_mix(wl::Mode mode, bool traced, Pass& pass, ModeRun& out,
               std::vector<JobOutcome>& outcomes, HostSpans& spans) {
    wl::Testbed tb;
    tb.trace = traced;
    Rig rig = set_up(tb, mode, nullptr, pass, spans);
    std::unique_ptr<svc::JobService> service;
    {
      const auto scope = spans.scope(std::string("setup/") + wl::mode_name(mode) + "/service");
      for (int i = 0; i < kSetupRepeats; ++i) {
        service.reset();
        const auto t0 = Clock::now();
        svc::ServiceConfig config;
        config.max_pending = 64;
        // Four jobs run at a time against eight clients: there is always a
        // backlog, so dispatch order (DRR) decides who runs.
        config.max_total_in_flight = 4;
        service = std::make_unique<svc::JobService>(*rig.engine, rig.runtime.get(), config);
        for (const auto& load : tenants_) service->add_tenant(load.config);
        pass.setup_service_s[static_cast<std::size_t>(i)] += seconds_since(t0);
      }
    }

    std::size_t total = 0;
    std::vector<std::size_t> first_slot;
    for (const auto& load : tenants_) {
      first_slot.push_back(total);
      total += static_cast<std::size_t>(load.clients * kRequestsPerClient);
    }
    outcomes.assign(total, JobOutcome{});
    std::uint64_t records = 0;
    {
      const auto scope = spans.scope(std::string(wl::mode_name(mode)) + "/engine.run");
      const auto t0 = Clock::now();
      rig.engine->run([&](df::Engine& engine) -> sim::Co<void> {
        sim::WaitGroup wg(engine.sim());
        wg.add(static_cast<int>(tenants_.size()));
        for (std::size_t t = 0; t < tenants_.size(); ++t) {
          engine.sim().spawn(tenant_loop(engine, *service, mode, static_cast<int>(t), tenants_[t],
                                         mix_[t], &outcomes[first_slot[t]], records, wg));
        }
        co_await wg.wait();
        co_await service->drain();
      });
      out.host_s = seconds_since(t0);
    }
    out.makespan = rig.engine->now();
    out.checksum = static_cast<double>(records);
    pass.rejected += service->rejected();
    finish_run(rig, traced, out, spans);
  }

  std::uint64_t seed_;
  std::vector<TenantLoad> tenants_;
  std::vector<std::vector<std::vector<JobSpec>>> mix_;  // [tenant][client][request]
};

}  // namespace

double kernel_registration_s() {
  static const double once = [] {
    const auto t0 = Clock::now();
    wl::ensure_kernels_registered();
    return seconds_since(t0);
  }();
  return once;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "pagerank_spill") return std::make_unique<PagerankSpill>(seed);
  if (name == "kmeans") return std::make_unique<Kmeans>(seed);
  if (name == "wordcount") return std::make_unique<Wordcount>(seed);
  if (name == "multitenant") return std::make_unique<Multitenant>(seed);
  return nullptr;
}

}  // namespace perfbench
// NOLINTEND(cppcoreguidelines-avoid-reference-coroutine-parameters)
