// Tests for the observability subsystem: JSON tree + parser, the labeled
// metrics registry, Chrome-trace export (validated by parsing the emitted
// document), lane utilization rollups, and run reports.
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/span.hpp"
#include "sim/trace.hpp"

namespace obs = gflink::obs;
namespace sim = gflink::sim;
using obs::Json;

// ---- Json ------------------------------------------------------------------

TEST(Json, BuildAndDump) {
  Json root = Json::object();
  root["name"] = "run";
  root["count"] = 3;
  root["ratio"] = 0.5;
  root["ok"] = true;
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  root["items"] = std::move(arr);
  EXPECT_EQ(root.dump(),
            "{\"name\":\"run\",\"count\":3,\"ratio\":0.5,\"ok\":true,\"items\":[1,\"two\"]}");
}

TEST(Json, ParseRoundTrip) {
  const std::string doc =
      R"({"a": 1, "b": [true, null, -2.5, "x\n\"y\""], "c": {"nested": 1e3}})";
  auto parsed = Json::parse(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("a")->as_int(), 1);
  const Json& b = *parsed->find("b");
  ASSERT_EQ(b.size(), 4u);
  EXPECT_TRUE(b.items()[0].as_bool());
  EXPECT_TRUE(b.items()[1].is_null());
  EXPECT_DOUBLE_EQ(b.items()[2].as_double(), -2.5);
  EXPECT_EQ(b.items()[3].as_string(), "x\n\"y\"");
  EXPECT_DOUBLE_EQ(parsed->find("c")->find("nested")->as_double(), 1000.0);

  // A dump of the parse must itself parse (round-trip stability).
  auto reparsed = Json::parse(parsed->dump(2));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->dump(), parsed->dump());
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(Json::parse("'single'").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
}

// ---- MetricsRegistry -------------------------------------------------------

TEST(Metrics, LabelSemantics) {
  obs::MetricsRegistry m;
  // Same name, different labels: distinct series.
  m.counter("bytes", {{"pipe", "a"}}).inc(10);
  m.counter("bytes", {{"pipe", "b"}}).inc(5);
  m.counter("bytes").inc(1);
  EXPECT_DOUBLE_EQ((m.counter_value("bytes", {{"pipe", "a"}})), 10.0);
  EXPECT_DOUBLE_EQ((m.counter_value("bytes", {{"pipe", "b"}})), 5.0);
  EXPECT_DOUBLE_EQ(m.counter_value("bytes"), 1.0);
  EXPECT_DOUBLE_EQ(m.counter_sum("bytes"), 16.0);
  // Label order must not matter: std::map canonicalizes.
  m.counter("multi", {{"x", "1"}, {"y", "2"}}).inc(1);
  m.counter("multi", {{"y", "2"}, {"x", "1"}}).inc(1);
  EXPECT_DOUBLE_EQ((m.counter_value("multi", {{"y", "2"}, {"x", "1"}})), 2.0);
  // Absent series read as zero.
  EXPECT_DOUBLE_EQ((m.counter_value("bytes", {{"pipe", "zzz"}})), 0.0);
  // Distinct label sets each make their own entry.
  obs::MetricsRegistry many;
  for (int i = 0; i < 200; ++i) many.counter("create", {{"i", std::to_string(i)}}).inc();
  EXPECT_EQ(many.counters().size(), 200u);
  EXPECT_DOUBLE_EQ(many.counter_sum("create"), 200.0);

  obs::MetricId id{"bytes", {{"pipe", "a"}}};
  EXPECT_EQ(id.to_string(), "bytes{pipe=\"a\"}");
  EXPECT_EQ((obs::MetricId{"plain"}.to_string()), "plain");
}

TEST(Metrics, HandlesAreStable) {
  obs::MetricsRegistry m;
  obs::Counter& c = m.counter("hot");
  for (int i = 0; i < 100; ++i) m.counter("other" + std::to_string(i));
  c.inc(7);
  EXPECT_DOUBLE_EQ(m.counter_value("hot"), 7.0);
  m.inc("hot");  // the keyed path reaches the series the handle holds
  EXPECT_DOUBLE_EQ(c.value(), 8.0);
  obs::Gauge& g = m.gauge("level");
  g.set(1.0);
  m.gauge("level").set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);  // last write wins
}

TEST(Metrics, HistogramRegistrationAndQuantiles) {
  obs::MetricsRegistry m;
  sim::Histogram& h = m.histogram("lat", 0.0, 100.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  // Re-registration with the same layout returns the same histogram.
  sim::Histogram& again = m.histogram("lat", 0.0, 100.0, 10);
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.summary().count(), 100u);
  EXPECT_DOUBLE_EQ(again.quantile(0.5), 50.0);
}

TEST(MetricsDeathTest, HistogramLayoutMismatchAborts) {
  // A layout change on re-registration would silently reinterpret every
  // recorded sample — it must abort instead of handing back the old series.
  obs::MetricsRegistry m;
  m.histogram("lat", 0.0, 100.0, 10);
  EXPECT_DEATH(m.histogram("lat", 0.0, 1.0, 1), "different");
  EXPECT_DEATH(m.histogram("lat", 0.0, 100.0, 20), "different");
  EXPECT_DEATH(m.histogram("lat", 5.0, 100.0, 10), "different");
}

TEST(Metrics, MergeFrom) {
  obs::MetricsRegistry a, b;
  a.counter("c").inc(1);
  b.counter("c").inc(2);
  b.counter("only_b").inc(4);
  a.gauge("g").set(1.0);
  b.gauge("g").set(9.0);
  a.histogram("h", 0.0, 10.0, 5).add(1.0);
  b.histogram("h", 0.0, 10.0, 5).add(2.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.counter_value("c"), 3.0);        // counters add
  EXPECT_DOUBLE_EQ(a.counter_value("only_b"), 4.0);   // new series appear
  EXPECT_DOUBLE_EQ(a.gauge_value("g"), 9.0);          // gauges overwrite
  ASSERT_NE(a.find_histogram("h"), nullptr);
  EXPECT_EQ(a.find_histogram("h")->summary().count(), 2u);  // histograms merge
}

TEST(Metrics, ToJsonCarriesQuantiles) {
  obs::MetricsRegistry m;
  m.counter("n", {{"k", "v"}}).inc(2);
  m.gauge("r").set(0.25);
  sim::Histogram& h = m.histogram("lat", 0.0, 100.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  Json j = m.to_json();
  ASSERT_NE(j.find("counters"), nullptr);
  ASSERT_NE(j.find("gauges"), nullptr);
  ASSERT_NE(j.find("histograms"), nullptr);
  const Json& hist = j.find("histograms")->items().at(0);
  EXPECT_EQ(hist.find("count")->as_int(), 100);
  EXPECT_DOUBLE_EQ(hist.find("p50")->as_double(), 50.0);
  EXPECT_NEAR(hist.find("p95")->as_double(), 95.0, 1.0);
  EXPECT_NEAR(hist.find("p99")->as_double(), 99.0, 1.0);
}

// ---- Chrome trace ----------------------------------------------------------

TEST(ChromeTrace, EmittedJsonParsesBack) {
  sim::Tracer t(true);
  t.record("node1.gpu0/h2d", "copyA", sim::micros(0), sim::micros(10));
  t.record("node1.gpu0/kernel", "k", sim::micros(5), sim::micros(25));
  t.record("node0/egress", "shuffle", sim::micros(10), sim::micros(30));
  t.record("loose_lane", "x", sim::micros(0), sim::micros(1));

  obs::MetricsRegistry m;
  m.counter("net.bytes").inc(4096);

  const std::string doc = obs::chrome_trace_json(t, &m, sim::micros(40));
  auto parsed = Json::parse(doc);
  ASSERT_TRUE(parsed.has_value()) << doc;

  const Json* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int meta = 0, complete = 0, counter = 0;
  for (const Json& e : events->items()) {
    const std::string ph = e.find("ph")->as_string();
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (ph == "M") {
      ++meta;
      const std::string name = e.find("name")->as_string();
      EXPECT_TRUE(name == "process_name" || name == "thread_name");
    } else if (ph == "X") {
      ++complete;
      EXPECT_GE(e.find("dur")->as_double(), 0.0);
      ASSERT_NE(e.find("ts"), nullptr);
    } else if (ph == "C") {
      ++counter;
      EXPECT_DOUBLE_EQ(e.find("args")->find("value")->as_double(), 4096.0);
    } else {
      FAIL() << "unexpected event phase " << ph;
    }
  }
  // 3 processes (node1.gpu0, node0, sim) + 4 threads of metadata; then the
  // 4 spans and 1 counter sample.
  EXPECT_EQ(meta, 3 + 4);
  EXPECT_EQ(complete, 4);
  EXPECT_EQ(counter, 1);

  // The kernel span keeps its microsecond timing through the export.
  bool found_kernel = false;
  for (const Json& e : events->items()) {
    if (e.find("ph")->as_string() == "X" && e.find("name")->as_string() == "k") {
      found_kernel = true;
      EXPECT_DOUBLE_EQ(e.find("ts")->as_double(), 5.0);
      EXPECT_DOUBLE_EQ(e.find("dur")->as_double(), 20.0);
    }
  }
  EXPECT_TRUE(found_kernel);

  // Utilization rollup rides along and is keyed by lane.
  const Json* util = parsed->find("laneUtilization");
  ASSERT_NE(util, nullptr);
  const Json* kernel_lane = util->find("node1.gpu0/kernel");
  ASSERT_NE(kernel_lane, nullptr);
  EXPECT_EQ(kernel_lane->find("busy_ns")->as_int(), sim::micros(20));
  EXPECT_DOUBLE_EQ(kernel_lane->find("utilization")->as_double(), 0.5);
}

TEST(ChromeTrace, LaneUtilizationUnionsOverlaps) {
  sim::Tracer t(true);
  // Overlapping spans on one lane: busy time is the union, not the sum
  // (mirrors sim::Tracer::busy_time's span-merge semantics).
  t.record("l", "a", 0, 100);
  t.record("l", "b", 50, 150);
  t.record("l", "c", 300, 400);
  auto util = obs::lane_utilization(t, 400);
  ASSERT_EQ(util.count("l"), 1u);
  EXPECT_EQ(util["l"].busy_ns, 250);
  EXPECT_EQ(util["l"].spans, 3u);
  EXPECT_DOUBLE_EQ(util["l"].utilization, 250.0 / 400.0);
}

// ---- RunReport -------------------------------------------------------------

TEST(RunReport, ToJsonCarriesHeadlineKeys) {
  obs::RunReport rep;
  rep.name = "unit";
  rep.set_config("workers", Json(4));
  rep.virtual_ns = sim::seconds(2);
  rep.metrics.counter("gpu_cache_hits_total").inc(3);
  rep.metrics.counter("gpu_cache_misses_total").inc(1);
  rep.metrics.counter("gstream_locality_hits_total").inc(1);
  rep.metrics.counter("gstream_locality_misses_total").inc(3);
  obs::add_derived_gflink_metrics(rep.metrics);

  EXPECT_DOUBLE_EQ(rep.metrics.gauge_value("cache_hit_ratio"), 0.75);
  EXPECT_DOUBLE_EQ(rep.metrics.gauge_value("locality_hit_ratio"), 0.25);

  Json j = rep.to_json();
  EXPECT_EQ(j.find("schema")->as_string(), "gflink.run_report/v3");
  EXPECT_EQ(j.find("name")->as_string(), "unit");
  EXPECT_EQ(j.find("config")->find("workers")->as_int(), 4);
  EXPECT_DOUBLE_EQ(j.find("virtual_seconds")->as_double(), 2.0);
  ASSERT_NE(j.find("metrics"), nullptr);

  // The acceptance keys must exist even in a run that never touched GPUs:
  // the three stage counters and both ratio gauges.
  const Json* counters = j.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  int stage_keys = 0;
  for (const Json& c : counters->items()) {
    if (c.find("name")->as_string() == "gpu_stage_busy_ns") ++stage_keys;
  }
  EXPECT_EQ(stage_keys, 3);

  // And the whole document survives a parse round-trip.
  auto parsed = Json::parse(j.dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("name")->as_string(), "unit");
}

// ---- Causal spans ----------------------------------------------------------

namespace {

// Golden span DAG used by the critical-path and flow-event tests:
//
//   job (Control)            [0 ....................................... 1000]
//     stage:map (Control)        [100 ............ 600]
//       task:map (Kernel)            [200 .. 500]
//     stage:reduce (Shuffle)                      [600 ......... 900]
//       wait:credit (Wait)                             [700 800]
//
// Last-finisher attribution: control 400 (job [0,100]+[900,1000],
// stage:map [100,200]+[500,600]), kernel 300, shuffle 200 ([600,700] +
// [800,900]), wait 100 — summing to the 1000 ns makespan exactly.
obs::SpanId build_golden_dag(obs::SpanStore& s) {
  s.set_retain(true);
  const obs::SpanId job =
      s.open("job", obs::SpanCategory::Control, 0, 0, "master/job", 0, /*trace_id=*/7);
  const obs::SpanId map = s.open("stage:map", obs::SpanCategory::Control, job, 100);
  s.record("task:map", obs::SpanCategory::Kernel, map, 200, 500, "node1/gpu0", 1);
  s.close(map, 600);
  const obs::SpanId reduce = s.open("stage:reduce", obs::SpanCategory::Shuffle, job, 600);
  s.record("wait:credit", obs::SpanCategory::Wait, reduce, 700, 800, "node2/shuffle", 2);
  s.close(reduce, 900);
  s.close(job, 1000);
  return job;
}

sim::Duration category_ns(const obs::CriticalPath& cp, obs::SpanCategory c) {
  return cp.by_category[static_cast<std::size_t>(c)];
}

}  // namespace

TEST(Spans, TraceIdInheritsAndAggregatesCount) {
  obs::SpanStore s;
  build_golden_dag(s);
  ASSERT_EQ(s.spans().size(), 5u);
  for (const auto& span : s.spans()) {
    EXPECT_EQ(span.trace_id, 7u) << span.name;
  }
  EXPECT_EQ(s.recorded(), 5u);

  obs::MetricsRegistry m;
  s.export_metrics(m);
  EXPECT_DOUBLE_EQ(m.counter_value("trace_spans_total"), 5.0);
  EXPECT_DOUBLE_EQ((m.counter_value("trace_span_ns_total", {{"category", "kernel"}})), 300.0);
  EXPECT_DOUBLE_EQ((m.counter_value("trace_span_ns_total", {{"category", "wait"}})), 100.0);
}

TEST(Spans, GoldenDagCriticalPathBreakdown) {
  obs::SpanStore s;
  build_golden_dag(s);
  const obs::CriticalPath cp = obs::extract_critical_path(s);

  EXPECT_EQ(cp.total, 1000);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::Control), 400);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::Kernel), 300);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::Shuffle), 200);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::Wait), 100);
  EXPECT_EQ(category_ns(cp, obs::SpanCategory::H2D), 0);

  // Every instant of the makespan lands in exactly one category.
  sim::Duration sum = 0;
  for (auto d : cp.by_category) sum += d;
  EXPECT_EQ(sum, cp.total);

  // Chronological segments walk the known longest path through the DAG.
  ASSERT_EQ(cp.segments.size(), 8u);
  const char* expected[] = {"job",          "stage:map",   "task:map",    "stage:map",
                            "stage:reduce", "wait:credit", "stage:reduce", "job"};
  sim::Time cursor = 0;
  for (std::size_t i = 0; i < cp.segments.size(); ++i) {
    EXPECT_EQ(cp.segments[i].name, expected[i]) << "segment " << i;
    EXPECT_EQ(cp.segments[i].begin, cursor) << "segment " << i;  // gap-free
    cursor = cp.segments[i].end;
  }
  EXPECT_EQ(cursor, 1000);
}

TEST(Spans, CriticalPathGaugesExport) {
  obs::SpanStore s;
  build_golden_dag(s);
  obs::MetricsRegistry m;
  obs::export_critical_path_metrics(obs::extract_critical_path(s), m);
  EXPECT_DOUBLE_EQ(m.gauge_value("trace_critical_path_seconds"), 1000e-9);
  EXPECT_DOUBLE_EQ((m.gauge_value("trace_critical_path_seconds", {{"category", "kernel"}})),
                   300e-9);
}

TEST(Spans, StragglerFlagsKnownOutlierAndNamesWaitedResource) {
  obs::SpanStore s;
  s.set_retain(true);
  // Peer group "task:rank" of ten members: nine take 100 ns, one takes
  // 1000 ns. Nearest-rank p95 over the sorted durations is 100 ns, so only
  // the outlier is strictly slower.
  for (int i = 0; i < 9; ++i) {
    s.record("task:rank", obs::SpanCategory::Control, 0, 0, 100, "node1/tasks", 1);
  }
  const obs::SpanId slow =
      s.open("task:rank", obs::SpanCategory::Control, 0, 0, "node3/tasks", 3);
  s.record("wait:slot", obs::SpanCategory::Wait, slow, 0, 700, "node3/slots", 3);
  s.record("wait:credit", obs::SpanCategory::Wait, slow, 700, 900, "node3/shuffle", 3);
  s.close(slow, 1000);
  // A group too small to have meaningful percentiles is never flagged.
  s.record("task:tiny", obs::SpanCategory::Control, 0, 0, 5000);
  s.record("task:tiny", obs::SpanCategory::Control, 0, 0, 1);

  const std::vector<obs::Straggler> out = obs::find_stragglers(s);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].span, slow);
  EXPECT_EQ(out[0].name, "task:rank");
  EXPECT_EQ(out[0].lane, "node3/tasks");
  EXPECT_EQ(out[0].duration, 1000);
  EXPECT_EQ(out[0].p95, 100);
  // Attribution names the longest Wait descendant and its lane.
  EXPECT_EQ(out[0].waited_on, "wait:slot on node3/slots");

  obs::MetricsRegistry m;
  obs::export_straggler_metrics(out, m);
  EXPECT_DOUBLE_EQ(m.gauge_value("trace_stragglers_total"), 1.0);
}

TEST(Spans, UntracedStoreStaysEmptyButCounts) {
  obs::SpanStore s;  // retain off: the default for untraced runs
  const obs::SpanId id = s.open("task:x", obs::SpanCategory::Control, 0, 0);
  s.close(id, 10);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.recorded(), 1u);
  EXPECT_EQ(obs::extract_critical_path(s).total, 0);
  // Id 0 is the "no span" sentinel everywhere.
  s.annotate(0, "k", "v");
  s.close(0, 99);
}

TEST(Spans, RecordMatchesOpenThenClose) {
  // The same history built twice: one-shot spans through record(), or
  // through open() + close(). Ids, trace ids, category totals, retained
  // spans and flight-ring contents must agree. The one-shot spans cover
  // four kinds of parent: none (a root), an open parent, and a closed
  // parent that the store retained (retain on) or dropped (retain off).
  struct Outcome {
    std::vector<obs::SpanId> ids;
    std::vector<std::uint64_t> trace_ids;  // of the one-shot spans
    std::vector<double> category_ns;
    std::string retained;
    std::string flight;
  };
  auto build = [](bool use_record, bool retain) {
    obs::FlightRecorder fr(/*ring_capacity=*/8);
    obs::SpanStore s;
    s.set_retain(retain);
    s.attach_flight_recorder(&fr);
    auto one_shot = [&](std::string name, obs::SpanCategory c, obs::SpanId parent,
                        sim::Time begin, sim::Time end, std::string lane, int node) {
      if (use_record) return s.record(std::move(name), c, parent, begin, end, std::move(lane), node);
      const obs::SpanId id = s.open(std::move(name), c, parent, begin, std::move(lane), node);
      s.close(id, end);
      return id;
    };
    Outcome o;
    const obs::SpanId job =
        s.open("job", obs::SpanCategory::Control, 0, 0, "master", -1, /*trace_id=*/42);
    const obs::SpanId stage = s.open("stage", obs::SpanCategory::Control, job, 1, "master", -1);
    s.close(stage, 5);
    o.ids = {job, stage};
    o.ids.push_back(one_shot("wait:root", obs::SpanCategory::Wait, 0, 2, 3, "node0/slots", 0));
    o.ids.push_back(
        one_shot("block:send", obs::SpanCategory::Shuffle, job, 3, 9, "node1/shuffle", 1));
    o.ids.push_back(
        one_shot("spill:write", obs::SpanCategory::Spill, stage, 6, 8, "node3/dfs", 3));
    o.ids.push_back(s.open("after", obs::SpanCategory::Kernel, o.ids.back(), 9, "gpu0", 1));
    s.close(o.ids.back(), 12);
    s.close(job, 20);
    const obs::Json dump = fr.to_json();
    for (const obs::Json& n : dump.find("nodes")->items()) {
      for (const obs::Json& span : n.find("spans")->items()) {
        const auto id = static_cast<obs::SpanId>(span.find("id")->as_int());
        if (id >= o.ids[2] && id <= o.ids[4]) {
          o.trace_ids.push_back(static_cast<std::uint64_t>(span.find("trace_id")->as_int()));
        }
      }
    }
    obs::MetricsRegistry m;
    s.export_metrics(m);
    for (std::size_t c = 0; c < obs::kSpanCategories; ++c) {
      o.category_ns.push_back(m.counter_value(
          "trace_span_ns_total",
          {{"category", obs::span_category_name(static_cast<obs::SpanCategory>(c))}}));
    }
    obs::Json retained = obs::Json::array();
    for (const auto& span : s.spans()) retained.push_back(span.to_json());
    o.retained = retained.dump();
    o.flight = dump.dump();
    return o;
  };
  for (const bool retain : {true, false}) {
    const Outcome rec = build(/*use_record=*/true, retain);
    const Outcome ref = build(/*use_record=*/false, retain);
    EXPECT_EQ(rec.ids, ref.ids) << "retain " << retain;
    EXPECT_EQ(rec.trace_ids, ref.trace_ids) << "retain " << retain;
    EXPECT_EQ(rec.category_ns, ref.category_ns) << "retain " << retain;
    EXPECT_EQ(rec.retained, ref.retained) << "retain " << retain;
    EXPECT_EQ(rec.flight, ref.flight) << "retain " << retain;
    // Flight nodes come in id order: root (node 0), open parent (node 1),
    // closed parent (node 3). A retained closed parent passes its trace id
    // on; a dropped one leaves 0.
    const std::vector<std::uint64_t> expected = {0, 42, retain ? 42u : 0u};
    EXPECT_EQ(rec.trace_ids, expected) << "retain " << retain;
  }
}

TEST(ChromeTrace, FlowEventsFollowSpanLinks) {
  sim::Tracer t(true);
  t.record("node1/cpu", "work", 0, 1000);
  obs::SpanStore s;
  build_golden_dag(s);

  const std::string doc = obs::chrome_trace_json(t, nullptr, 1000, &s);
  auto parsed = Json::parse(doc);
  ASSERT_TRUE(parsed.has_value()) << doc;

  // Four parent/child links -> four "s"/"f" pairs, ids matching pairwise.
  std::map<std::int64_t, int> starts, finishes;
  int causal_slices = 0;
  for (const Json& e : parsed->find("traceEvents")->items()) {
    const std::string ph = e.find("ph")->as_string();
    if (ph == "s") ++starts[e.find("id")->as_int()];
    if (ph == "f") {
      ++finishes[e.find("id")->as_int()];
      EXPECT_EQ(e.find("bp")->as_string(), "e");
    }
    if (ph == "X" && e.find("cat")->as_string() == "causal") ++causal_slices;
  }
  EXPECT_EQ(causal_slices, 5);
  EXPECT_EQ(starts.size(), 4u);
  EXPECT_EQ(finishes.size(), 4u);
  for (const auto& [id, n] : starts) {
    EXPECT_EQ(n, 1) << "flow id " << id;
    EXPECT_EQ(finishes[id], 1) << "flow id " << id;
  }
}

// ---- Flight recorder -------------------------------------------------------

TEST(FlightRecorder, RingsAreBoundedAndDumpRoundTrips) {
  obs::FlightRecorder fr(/*ring_capacity=*/4);
  obs::SpanStore s;
  s.attach_flight_recorder(&fr);
  // Ten closed spans on one node: the ring keeps only the last four even
  // though the store itself retains nothing (untraced run).
  for (int i = 0; i < 10; ++i) {
    s.record("task:t", obs::SpanCategory::Control, 0, i * 10, i * 10 + 5, "node1/tasks", 1);
  }
  fr.note_event(100, 1, "cache_evict", "gpu0 4096 bytes");
  fr.note_fault(110, 2, "shuffle_transfer_fault", "block to node3");
  EXPECT_EQ(fr.faults(), 1u);

  const std::string path = ::testing::TempDir() + "flight_dump_test.json";
  ASSERT_TRUE(fr.dump_now(path));

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = Json::parse(buf.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("schema")->as_string(), "gflink.flight_dump/v1");
  const Json* nodes = parsed->find("nodes");
  ASSERT_NE(nodes, nullptr);
  bool saw_node1 = false, saw_fault = false;
  for (const Json& n : nodes->items()) {
    if (n.find("node")->as_int() == 1) {
      saw_node1 = true;
      ASSERT_EQ(n.find("spans")->size(), 4u);  // bounded ring, oldest dropped
      // Oldest-first: the retained spans are the last four recorded.
      EXPECT_EQ(n.find("spans")->items()[0].find("begin_ns")->as_int(), 60);
      EXPECT_EQ(n.find("events")->items()[0].find("kind")->as_string(), "cache_evict");
    }
    for (const Json& ev : n.find("events")->items()) {
      if (ev.find("kind")->as_string() == "shuffle_transfer_fault") saw_fault = true;
    }
  }
  EXPECT_TRUE(saw_node1);
  EXPECT_TRUE(saw_fault);
  std::remove(path.c_str());
}

namespace {

/// The flight dump as the per-node std::deque rings produced it: spans and
/// events each keep the newest `capacity` per node, nodes in id order over
/// the union of both, rings oldest-first.
std::string deque_reference_dump(std::size_t capacity,
                                 const std::vector<obs::CausalSpan>& spans,
                                 const std::vector<obs::FlightEvent>& events) {
  std::map<int, std::deque<obs::CausalSpan>> span_rings;
  std::map<int, std::deque<obs::FlightEvent>> event_rings;
  for (const auto& s : spans) {
    auto& ring = span_rings[s.node];
    ring.push_back(s);
    while (ring.size() > capacity) ring.pop_front();
  }
  for (const auto& e : events) {
    auto& ring = event_rings[e.node];
    ring.push_back(e);
    while (ring.size() > capacity) ring.pop_front();
  }
  std::map<int, std::pair<Json, Json>> by_node;
  for (const auto& [node, ring] : span_rings) {
    auto& entry = by_node[node];
    entry.first = Json::array();
    for (const auto& s : ring) entry.first.push_back(s.to_json());
  }
  for (const auto& [node, ring] : event_rings) {
    auto& entry = by_node[node];
    entry.second = Json::array();
    for (const auto& e : ring) entry.second.push_back(e.to_json());
  }
  Json root = Json::object();
  root["schema"] = "gflink.flight_dump/v1";
  root["ring_capacity"] = static_cast<std::uint64_t>(capacity);
  root["spans_seen"] = static_cast<std::uint64_t>(spans.size());
  root["events_seen"] = static_cast<std::uint64_t>(events.size());
  root["faults"] = std::uint64_t{0};
  Json nodes = Json::array();
  for (auto& [node, entry] : by_node) {
    Json n = Json::object();
    n["node"] = node;
    n["spans"] = entry.first.is_null() ? Json::array() : std::move(entry.first);
    n["events"] = entry.second.is_null() ? Json::array() : std::move(entry.second);
    nodes.push_back(std::move(n));
  }
  root["nodes"] = std::move(nodes);
  return root.dump();
}

}  // namespace

TEST(FlightRecorder, DumpMatchesDequeReference) {
  // More spans than the capacity on nodes -1, 0 and 3, interleaved, with
  // names, lanes and notes of varying length (slots are overwritten in
  // place, so a long string must not leak into a later short one); events
  // only on node 7.
  std::vector<obs::CausalSpan> spans;
  const int nodes[] = {3, -1, 0, 3, 3, 0, -1};
  for (int i = 0; i < 23; ++i) {
    obs::CausalSpan s;
    s.id = static_cast<obs::SpanId>(i + 1);
    s.parent = i % 3 == 0 ? 0 : static_cast<obs::SpanId>(i);
    s.trace_id = static_cast<std::uint64_t>(i % 2);
    s.name = i % 4 == 0 ? "block:send:" + std::string(40, static_cast<char>('a' + i % 26)) : "t";
    s.category = static_cast<obs::SpanCategory>(i % obs::kSpanCategories);
    s.begin = i * 10;
    s.end = i * 10 + 3 + i % 5;
    s.lane = i % 3 == 0 ? "" : "node" + std::to_string(i) + "/a-fairly-long-lane-name";
    s.node = nodes[i % 7];
    if (i % 5 == 0) s.notes.emplace_back("k" + std::to_string(i), std::string(30, 'v'));
    spans.push_back(std::move(s));
  }
  std::vector<obs::FlightEvent> events;
  for (int i = 0; i < 6; ++i) {
    events.push_back(obs::FlightEvent{i * 7, 7, "evict", "event " + std::to_string(i)});
  }
  for (const std::size_t capacity : {std::size_t{4}, std::size_t{0}}) {
    obs::FlightRecorder fr(capacity);
    for (const auto& s : spans) fr.on_span_closed(s);
    for (const auto& e : events) fr.note_event(e.at, e.node, e.kind, e.detail);
    EXPECT_EQ(fr.to_json().dump(), deque_reference_dump(capacity, spans, events))
        << "capacity " << capacity;
    EXPECT_EQ(fr.events_seen(), events.size());  // counts past the ring capacity
    EXPECT_EQ(fr.faults(), 0u);
  }
  obs::FlightRecorder empty_rings(0);
  for (const auto& s : spans) empty_rings.on_span_closed(s);
  const Json dump = empty_rings.to_json();
  for (const Json& n : dump.find("nodes")->items()) {
    EXPECT_EQ(n.find("spans")->size(), 0u);  // capacity 0 keeps no spans
  }
}

TEST(FlightRecorder, FirstFaultAutoDumps) {
  obs::FlightRecorder fr;
  const std::string path = ::testing::TempDir() + "flight_auto_dump.json";
  fr.set_dump_path(path);
  fr.note_event(1, 0, "benign", "not a fault");
  EXPECT_EQ(fr.dumps(), 0u);
  fr.note_fault(2, 1, "worker_failure", "worker 1 died");
  EXPECT_EQ(fr.dumps(), 1u);
  fr.note_fault(3, 2, "worker_failure", "worker 2 died");
  EXPECT_EQ(fr.dumps(), 1u);  // only the first fault snapshots
  EXPECT_EQ(fr.faults(), 2u);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
  obs::MetricsRegistry m;
  fr.export_metrics(m);
  EXPECT_DOUBLE_EQ(m.counter_value("flight_events_total"), 3.0);
  EXPECT_DOUBLE_EQ(m.counter_value("flight_faults_total"), 2.0);
  EXPECT_DOUBLE_EQ(m.counter_value("flight_dumps_total"), 1.0);
  fr.clear();
  EXPECT_EQ(fr.faults(), 0u);
  EXPECT_EQ(fr.events_seen(), 0u);
}

TEST(RunReport, DerivedMetricsNeedGpuOrGstreamCounters) {
  obs::MetricsRegistry m;
  EXPECT_FALSE(obs::has_gflink_counters(m));
  // Host-only layers (network, shuffle, spill, engine) are not enough,
  // and neither is a GPU gauge or a name that only contains "gpu".
  m.inc("net.bytes", 10);
  m.inc("shuffle.blocks");
  m.counter("spill_offload_bytes_total", {{"tier", "dfs"}}).inc(4);
  m.inc("engine.gpu_like_total");
  m.gauge("gpu_cache_region_used_bytes").set(1.0);
  EXPECT_FALSE(obs::has_gflink_counters(m));

  obs::MetricsRegistry gpu = m;
  gpu.counter("gpu_kernels_total", {{"node", "1"}}).inc();
  EXPECT_TRUE(obs::has_gflink_counters(gpu));
  obs::MetricsRegistry gstream = m;
  gstream.inc("gstream_steals_total", 0.0);  // registered, even at 0
  EXPECT_TRUE(obs::has_gflink_counters(gstream));
}

TEST(RunReport, DerivedMetricsHandleEmptyRegistry) {
  obs::MetricsRegistry m;
  obs::add_derived_gflink_metrics(m);
  EXPECT_DOUBLE_EQ(m.gauge_value("cache_hit_ratio"), 0.0);
  EXPECT_DOUBLE_EQ(m.gauge_value("locality_hit_ratio"), 0.0);
  EXPECT_DOUBLE_EQ((m.counter_value("gpu_stage_busy_ns", {{"stage", "kernel"}})), 0.0);
}
