// Per-layer metrics: what a traced pass left in the exported registries
// and the critical path, plus the timed host calls into single layers.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "harness.hpp"
#include "shuffle/shuffle_service.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

HostSpans::Scope HostSpans::scope(const std::string& name) {
  if (!enabled_) return Scope(nullptr, -1);
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, seconds_since(origin_), 0.0, open_.empty() ? -1 : open_.back()});
  open_.push_back(index);
  return Scope(this, index);
}

void HostSpans::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = seconds_since(origin_);
  open_.pop_back();
}

bool HostSpans::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\": [", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n  {\"name\": \"%s\", \"begin_s\": %.9f, \"end_s\": %.9f, \"parent\": %d}",
                 i == 0 ? "" : ",", s.name.c_str(), s.begin_s, s.end_s, s.parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

namespace {

double sum_counter(const ModeRun& run, const std::string& name) {
  return run.metrics ? run.metrics->counter_sum(name) : 0.0;
}

double sum_both(const Pass& p, const std::string& name) {
  return sum_counter(p.flink, name) + sum_counter(p.gflink, name);
}

/// Sum of `name` over the series whose `label` value ends with one of
/// `suffixes`.
double sum_labelled(const ModeRun& run, const std::string& name, const std::string& label,
                    const std::vector<std::string>& suffixes) {
  if (!run.metrics) return 0.0;
  double total = 0.0;
  for (const auto& [id, counter] : run.metrics->counters()) {
    const auto it = id.labels.find(label);
    if (id.name != name || it == id.labels.end()) continue;
    const std::string& value = it->second;
    if (std::any_of(suffixes.begin(), suffixes.end(), [&](const std::string& s) {
          return value.size() >= s.size() &&
                 value.compare(value.size() - s.size(), s.size(), s) == 0;
        })) {
      total += counter.value();
    }
  }
  return total;
}

/// Share of copy/compute time that overlapped, cluster-wide: overlapped
/// ns over the hideable ns min(h2d + d2h, kernel), both summed per device.
double copy_compute_overlap(const ModeRun& run) {
  if (!run.metrics) return 0.0;
  std::map<obs::Labels, std::array<double, 4>> per_device;  // h2d, d2h, kernel, overlap
  const std::array<const char*, 4> names{"gpu_h2d_busy_ns_total", "gpu_d2h_busy_ns_total",
                                         "gpu_kernel_busy_ns_total",
                                         "gpu_copy_compute_overlap_ns_total"};
  for (const auto& [id, counter] : run.metrics->counters()) {
    for (std::size_t k = 0; k < names.size(); ++k) {
      if (id.name == names[k]) per_device[id.labels][k] += counter.value();
    }
  }
  double overlap = 0.0, hideable = 0.0;
  for (const auto& [labels, v] : per_device) {
    overlap += v[3];
    hideable += std::min(v[0] + v[1], v[2]);
  }
  return hideable > 0 ? overlap / hideable : 0.0;
}

/// p99 of every series of a histogram merged together.
double merged_p99(const ModeRun& run, const std::string& name) {
  if (!run.metrics) return 0.0;
  std::unique_ptr<sim::Histogram> merged;
  for (const auto& [id, h] : run.metrics->histograms()) {
    if (id.name != name) continue;
    if (merged) {
      merged->merge(h);
    } else {
      merged = std::make_unique<sim::Histogram>(h);
    }
  }
  return merged && merged->summary().count() > 0 ? merged->quantile(0.99) : 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void layer_metrics(const Pass& p, double scale, Metrics& out) {
  // Virtual durations are reported as full-scale seconds.
  const auto full_s = [scale](double ns) { return ns * 1e-9 / scale; };
  const auto cat = [](const ModeRun& r, obs::SpanCategory c) {
    return static_cast<double>(r.cp.by_category[static_cast<std::size_t>(c)]);
  };
  using C = obs::SpanCategory;
  for (const C c : {C::Control, C::H2D, C::Kernel, C::D2H, C::Shuffle, C::Spill, C::Wait}) {
    out.push_back({std::string("cp.gflink.") + obs::span_category_name(c) + "_s",
                   full_s(cat(p.gflink, c)), "s"});
  }
  for (const C c : {C::Control, C::Shuffle, C::Spill, C::Wait}) {
    out.push_back({std::string("cp.flink.") + obs::span_category_name(c) + "_s",
                   full_s(cat(p.flink, c)), "s"});
  }

  const std::vector<std::string> net_pipes{"/egress", "/ingress", "/rdma_tx", "/rdma_rx"};
  out.push_back({"net.bytes", sum_both(p, "net.bytes") + sum_both(p, "net.rdma_bytes"), "B"});
  const double queue_ns =
      sum_labelled(p.flink, "net_pipe_queue_wait_ns_total", "pipe", net_pipes) +
      sum_labelled(p.gflink, "net_pipe_queue_wait_ns_total", "pipe", net_pipes);
  out.push_back({"net.queue_wait_s", full_s(queue_ns), "s"});

  out.push_back({"dfs.read_bytes", sum_both(p, "dfs.bytes_read"), "B"});
  out.push_back({"dfs.write_bytes", sum_both(p, "dfs.bytes_written"), "B"});

  const ModeRun& g = p.gflink;
  out.push_back({"gpu.h2d_bytes", sum_counter(g, "gpu_bytes_h2d_total"), "B"});
  out.push_back({"gpu.kernel_busy_s", full_s(sum_counter(g, "gpu_kernel_busy_ns_total")), "s"});
  out.push_back({"gpu.copy_compute_overlap", copy_compute_overlap(g), "ratio"});

  const double hits = sum_counter(g, "gpu_cache_hits_total");
  const double misses = sum_counter(g, "gpu_cache_misses_total");
  const double loc_hits = sum_counter(g, "gstream_locality_hits_total");
  const double loc_misses = sum_counter(g, "gstream_locality_misses_total");
  out.push_back({"core.cache_hits", hits, "count"});
  out.push_back({"core.cache_misses", misses, "count"});
  out.push_back({"core.cache_hit_ratio", ratio(hits, hits + misses), "ratio"});
  out.push_back({"core.cache_evictions", sum_counter(g, "gpu_cache_evictions_total"), "count"});
  out.push_back({"core.locality_hit_ratio", ratio(loc_hits, loc_hits + loc_misses), "ratio"});
  out.push_back({"core.gstream_steals", sum_counter(g, "gstream_steals_total"), "count"});
  out.push_back({"core.oom_retries", sum_counter(g, "gstream_oom_retries_total"), "count"});
  out.push_back({"core.queue_depth_p99", merged_p99(g, "gstream_queue_depth"), "count"});

  out.push_back({"dataflow.records_in", sum_both(p, "engine.records_in"), "count"});
  out.push_back({"dataflow.tasks", sum_both(p, "engine.stage_tasks"), "count"});
  out.push_back({"dataflow.task_busy_s", full_s(sum_both(p, "engine.task_busy_ns")), "s"});
  out.push_back({"dataflow.tasks_retried", sum_both(p, "engine_tasks_retried_total"), "count"});

  const double shuffle_bytes = sum_both(p, "engine.shuffle_bytes");
  out.push_back({"shuffle.bytes", shuffle_bytes, "B"});
  out.push_back({"shuffle.one_sided_writes", sum_both(p, "shuffle.one_sided_writes"), "count"});

  const double offload = sum_both(p, "spill_offload_bytes_total");
  const double offload_dfs = sum_labelled(p.flink, "spill_offload_bytes_total", "tier", {"dfs"}) +
                             sum_labelled(p.gflink, "spill_offload_bytes_total", "tier", {"dfs"});
  out.push_back({"spill.offload_bytes", offload, "B"});
  out.push_back({"spill.spilled_share", ratio(offload, shuffle_bytes), "ratio"});
  out.push_back({"spill.codec_ratio", ratio(sum_both(p, "spill_stored_bytes_total"), offload),
                 "ratio"});
  out.push_back({"spill.dfs_tier_share", ratio(offload_dfs, offload), "ratio"});
  out.push_back({"spill.producer_stall_s", full_s(sum_both(p, "spill_producer_stall_ns_total")),
                 "s"});
  out.push_back({"spill.fetch_wait_s", full_s(sum_both(p, "spill_fetch_wait_ns_total")), "s"});

  std::vector<double> queue_ms, run_ms;
  for (const auto& j : p.jobs) {
    if (!j.ok) continue;
    queue_ms.push_back(static_cast<double>(j.dispatched - j.enqueued) * 1e-6);
    run_ms.push_back(static_cast<double>(j.completed - j.dispatched) * 1e-6);
  }
  out.push_back({"service.queue_wait_p99_ms", nearest_rank(queue_ms, 0.99), "ms"});
  out.push_back({"service.run_p99_ms", nearest_rank(run_ms, 0.99), "ms"});
  out.push_back({"service.share_err", p.share_err, "ratio"});
  out.push_back({"service.rejected", static_cast<double>(p.rejected), "count"});
}

double partition_mb_per_s(const gflink::mem::RecordBatch& batch, const df::KeyFn& key,
                          const df::CombineFn& combine, double budget_s) {
  df::Engine engine(wl::make_engine_config(wl::Testbed{}));
  const gflink::shuffle::ShuffleSession session(engine.shuffle_service(),
                                                engine.default_parallelism(), "bench");
  const double s = median_call_s(budget_s, [&] {
    sink = static_cast<double>(session.partition(batch, &batch.desc(), key, &combine).size());
  });
  return static_cast<double>(batch.byte_size()) / s / 1e6;
}

double to_layout_mb_per_s(const gflink::mem::RecordBatch& aos, double budget_s) {
  using gflink::mem::Layout;
  // A transform that does not round-trip is a wrong result, not a speed.
  if (aos.to_layout(Layout::SoA).to_layout(Layout::AoS).bytes() != aos.bytes()) return 0.0;
  const double s = median_call_s(budget_s, [&] {
    sink = static_cast<double>(aos.to_layout(Layout::SoA).to_layout(Layout::AoS).count());
  });
  return 2.0 * static_cast<double>(aos.byte_size()) / s / 1e6;
}

double counter_lookup_ns(obs::MetricsRegistry& registry, double budget_s) {
  std::vector<obs::MetricId> ids;
  for (const auto& [id, counter] : registry.counters()) ids.push_back(id);
  if (ids.empty()) return 0.0;
  const double s = median_call_s(budget_s, [&] {
    double sum = 0.0;
    for (const auto& id : ids) sum += registry.counter(id.name, id.labels).value();
    sink = sum;
  });
  return s * 1e9 / static_cast<double>(ids.size());
}

}  // namespace perfbench
