#include "obs/run_report.hpp"

#include <algorithm>
#include <fstream>

namespace gflink::obs {

void RunReport::capture_spans(const SpanStore& spans) {
  const CriticalPath cp = extract_critical_path(spans);
  critical_path = cp.to_json();
  export_critical_path_metrics(cp, metrics);
  const std::vector<Straggler> slow = find_stragglers(spans);
  stragglers = Json::array();
  for (const auto& s : slow) stragglers.push_back(s.to_json());
  export_straggler_metrics(slow, metrics);
}

Json RunReport::to_json() const {
  Json root = Json::object();
  root["name"] = name;
  root["schema"] = "gflink.run_report/v3";
  root["config"] = config;
  root["wall_seconds"] = wall_seconds;
  root["virtual_ns"] = static_cast<std::int64_t>(virtual_ns);
  root["virtual_seconds"] = sim::to_seconds(virtual_ns);
  root["metrics"] = metrics.to_json();
  Json lanes_json = Json::object();
  for (const auto& [lane, u] : lanes) {
    Json entry = Json::object();
    entry["busy_ns"] = static_cast<std::int64_t>(u.busy_ns);
    entry["spans"] = u.spans;
    entry["utilization"] = u.utilization;
    lanes_json[lane] = std::move(entry);
  }
  root["lane_utilization"] = std::move(lanes_json);
  if (!critical_path.is_null()) root["critical_path"] = critical_path;
  if (!stragglers.is_null()) root["stragglers"] = stragglers;
  if (!tenants.is_null()) root["tenants"] = tenants;
  return root;
}

bool RunReport::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json().dump(2) << "\n";
  return static_cast<bool>(out);
}

void add_derived_gflink_metrics(MetricsRegistry& m) {
  // Touch the headline keys so every report carries them, then derive.
  for (const char* stage : {"h2d", "kernel", "d2h"}) {
    m.counter("gpu_stage_busy_ns", {{"stage", stage}});
  }
  const double hits = m.counter_value("gpu_cache_hits_total");
  const double misses = m.counter_value("gpu_cache_misses_total");
  m.gauge("cache_hit_ratio").set(hits + misses > 0 ? hits / (hits + misses) : 0.0);

  const double loc_hits = m.counter_value("gstream_locality_hits_total");
  const double loc_misses = m.counter_value("gstream_locality_misses_total");
  m.gauge("locality_hit_ratio")
      .set(loc_hits + loc_misses > 0 ? loc_hits / (loc_hits + loc_misses) : 0.0);

  // Cluster-wide copy-compute overlap efficiency: how much of the hideable
  // copy time (bounded by min(copy busy, kernel busy) per GPU) actually ran
  // concurrently with a kernel. The per-GPU gauges carry the local values;
  // this rolls them up for the headline tables.
  const double overlap = m.counter_sum("gpu_copy_compute_overlap_ns_total");
  const double copy_busy =
      m.counter_sum("gpu_h2d_busy_ns_total") + m.counter_sum("gpu_d2h_busy_ns_total");
  const double kernel_busy = m.counter_sum("gpu_kernel_busy_ns_total");
  const double hideable = std::min(copy_busy, kernel_busy);
  m.gauge("copy_compute_overlap_efficiency").set(hideable > 0 ? overlap / hideable : 0.0);
}

bool has_gflink_counters(const MetricsRegistry& m) {
  return std::any_of(m.counters().begin(), m.counters().end(), [](const auto& entry) {
    const std::string& name = entry.first.name;
    return name.starts_with("gpu_") || name.starts_with("gstream_");
  });
}

}  // namespace gflink::obs
