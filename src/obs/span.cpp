#include "obs/span.hpp"

#include <algorithm>
#include <map>

#include "sim/util.hpp"

#include "obs/flight_recorder.hpp"

namespace gflink::obs {

namespace {

constexpr std::size_t idx(SpanCategory c) { return static_cast<std::size_t>(c); }

}  // namespace

const char* span_category_name(SpanCategory c) {
  switch (c) {
    case SpanCategory::Control: return "control";
    case SpanCategory::H2D: return "h2d";
    case SpanCategory::Kernel: return "kernel";
    case SpanCategory::D2H: return "d2h";
    case SpanCategory::Shuffle: return "shuffle";
    case SpanCategory::Spill: return "spill";
    case SpanCategory::Wait: return "wait";
  }
  return "unknown";
}

Json CausalSpan::to_json() const {
  Json j = Json::object();
  j["id"] = id;
  j["parent"] = parent;
  j["trace_id"] = trace_id;
  j["name"] = name;
  j["category"] = span_category_name(category);
  j["begin_ns"] = static_cast<std::int64_t>(begin);
  j["end_ns"] = static_cast<std::int64_t>(end);
  if (!lane.empty()) j["lane"] = lane;
  j["node"] = node;
  if (!notes.empty()) {
    Json n = Json::object();
    for (const auto& [k, v] : notes) n[k] = v;
    j["notes"] = std::move(n);
  }
  return j;
}

CausalSpan SpanStore::start(std::string name, SpanCategory category, SpanId parent,
                            sim::Time begin, std::string lane, int node,
                            std::uint64_t trace_id) {
  CausalSpan s;
  s.id = next_id_++;
  s.parent = parent;
  s.name = std::move(name);
  s.category = category;
  s.begin = begin;
  s.lane = std::move(lane);
  s.node = node;
  if (parent != 0) {
    // Inherit the trace id from the parent if it is still open or retained;
    // a parent that was already dropped leaves the child's trace id at 0.
    auto it = open_.find(parent);
    if (it != open_.end()) {
      s.trace_id = it->second.trace_id;
    } else if (retain_) {
      for (auto rit = closed_.rbegin(); rit != closed_.rend(); ++rit) {
        if (rit->id == parent) {
          s.trace_id = rit->trace_id;
          break;
        }
      }
    }
  } else {
    s.trace_id = trace_id;
  }
  return s;
}

SpanId SpanStore::open(std::string name, SpanCategory category, SpanId parent, sim::Time begin,
                       std::string lane, int node, std::uint64_t trace_id) {
  CausalSpan s = start(std::move(name), category, parent, begin, std::move(lane), node, trace_id);
  const SpanId id = s.id;
  open_.emplace(id, std::move(s));
  return id;
}

void SpanStore::annotate(SpanId id, std::string key, std::string value) {
  if (id == 0) return;
  auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.notes.emplace_back(std::move(key), std::move(value));
}

void SpanStore::close(SpanId id, sim::Time end) {
  if (id == 0) return;
  auto it = open_.find(id);
  GFLINK_CHECK_MSG(it != open_.end(), "SpanStore::close on unknown/already-closed span id");
  CausalSpan s = std::move(it->second);
  open_.erase(it);
  s.end = end;
  finish(std::move(s));
}

SpanId SpanStore::record(std::string name, SpanCategory category, SpanId parent, sim::Time begin,
                         sim::Time end, std::string lane, int node) {
  // Same id, trace id and close path as open() + close(), without the
  // round trip through the open-span table.
  CausalSpan s = start(std::move(name), category, parent, begin, std::move(lane), node, 0);
  s.end = end;
  const SpanId id = s.id;
  finish(std::move(s));
  return id;
}

void SpanStore::finish(CausalSpan&& s) {
  ++recorded_;
  category_ns_[idx(s.category)] += s.duration();
  if (flight_ != nullptr) flight_->on_span_closed(s);
  if (retain_) closed_.push_back(std::move(s));
}

void SpanStore::clear() {
  open_.clear();
  closed_.clear();
  recorded_ = 0;
  category_ns_.fill(0);
  next_id_ = 1;
}

void SpanStore::export_metrics(MetricsRegistry& m) const {
  m.counter("trace_spans_total").inc(static_cast<double>(recorded_));
  for (std::size_t i = 0; i < kSpanCategories; ++i) {
    m.counter("trace_span_ns_total", {{"category", span_category_name(static_cast<SpanCategory>(i))}})
        .inc(static_cast<double>(category_ns_[i]));
  }
}

// ---- Critical path ---------------------------------------------------------

Json CriticalPath::to_json() const {
  Json j = Json::object();
  j["total_ns"] = static_cast<std::int64_t>(total);
  Json breakdown = Json::object();
  for (std::size_t i = 0; i < kSpanCategories; ++i) {
    breakdown[span_category_name(static_cast<SpanCategory>(i))] =
        static_cast<std::int64_t>(by_category[i]);
  }
  j["breakdown_ns"] = std::move(breakdown);
  Json segs = Json::array();
  for (const auto& s : segments) {
    Json e = Json::object();
    e["span"] = s.span;
    e["name"] = s.name;
    e["category"] = span_category_name(s.category);
    e["begin_ns"] = static_cast<std::int64_t>(s.begin);
    e["end_ns"] = static_cast<std::int64_t>(s.end);
    segs.push_back(std::move(e));
  }
  j["segments"] = std::move(segs);
  return j;
}

namespace {

/// Backwards "last finisher" walk. For span S over [lo, hi]: children are
/// visited in decreasing end order, the gap between the frontier and a
/// child's end is S's own time, the child's interval recurses, and the
/// frontier jumps to the child's begin. Whatever remains in front of the
/// earliest child is S's own time too — so [lo, hi] is covered exactly once.
struct CriticalPathWalker {
  const std::unordered_map<SpanId, std::vector<const CausalSpan*>>& children;
  CriticalPath& cp;

  void attribute(const CausalSpan& s, sim::Time b, sim::Time e) {
    cp.by_category[idx(s.category)] += e - b;
    cp.segments.push_back({s.id, s.name, s.category, b, e});
  }

  void walk(const CausalSpan& s, sim::Time lo, sim::Time hi) {
    const sim::Time floor = std::max(s.begin, lo);
    sim::Time t = hi;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const CausalSpan* c : it->second) {
        if (t <= floor) break;
        const sim::Time ce = std::min(c->end, t);
        const sim::Time cb = std::max(c->begin, floor);
        if (ce <= cb) continue;
        if (ce < t) attribute(s, ce, t);
        walk(*c, cb, ce);
        t = cb;
      }
    }
    if (t > floor) attribute(s, floor, t);
  }
};

}  // namespace

CriticalPath extract_critical_path(const SpanStore& store) {
  CriticalPath cp;
  const auto& spans = store.spans();
  if (spans.empty()) return cp;

  std::unordered_map<SpanId, const CausalSpan*> by_id;
  by_id.reserve(spans.size());
  for (const auto& s : spans) by_id.emplace(s.id, &s);

  std::unordered_map<SpanId, std::vector<const CausalSpan*>> children;
  std::vector<const CausalSpan*> roots;
  for (const auto& s : spans) {
    if (s.parent != 0 && by_id.count(s.parent) != 0) {
      children[s.parent].push_back(&s);
    } else {
      roots.push_back(&s);
    }
  }
  for (auto& [id, kids] : children) {
    std::sort(kids.begin(), kids.end(), [](const CausalSpan* a, const CausalSpan* b) {
      if (a->end != b->end) return a->end > b->end;
      return a->id > b->id;
    });
  }
  std::sort(roots.begin(), roots.end(), [](const CausalSpan* a, const CausalSpan* b) {
    if (a->begin != b->begin) return a->begin < b->begin;
    return a->id < b->id;
  });

  CriticalPathWalker walker{children, cp};
  for (const CausalSpan* root : roots) {
    cp.total += root->duration();
    walker.walk(*root, root->begin, root->end);
  }

  // The walk emits segments latest-first; restore chronological order and
  // coalesce adjacent segments of the same span.
  std::reverse(cp.segments.begin(), cp.segments.end());
  std::vector<CriticalPathSegment> merged;
  for (auto& seg : cp.segments) {
    if (!merged.empty() && merged.back().span == seg.span && merged.back().end == seg.begin) {
      merged.back().end = seg.end;
    } else {
      merged.push_back(std::move(seg));
    }
  }
  cp.segments = std::move(merged);
  return cp;
}

void export_critical_path_metrics(const CriticalPath& cp, MetricsRegistry& m) {
  m.gauge("trace_critical_path_seconds").set(sim::to_seconds(cp.total));
  for (std::size_t i = 0; i < kSpanCategories; ++i) {
    m.gauge("trace_critical_path_seconds",
            {{"category", span_category_name(static_cast<SpanCategory>(i))}})
        .set(sim::to_seconds(cp.by_category[i]));
  }
}

// ---- Straggler attribution -------------------------------------------------

Json Straggler::to_json() const {
  Json j = Json::object();
  j["span"] = span;
  j["name"] = name;
  if (!lane.empty()) j["lane"] = lane;
  j["duration_ns"] = static_cast<std::int64_t>(duration);
  j["p95_ns"] = static_cast<std::int64_t>(p95);
  if (!waited_on.empty()) j["waited_on"] = waited_on;
  return j;
}

std::vector<Straggler> find_stragglers(const SpanStore& store, std::size_t min_group) {
  const auto& spans = store.spans();
  std::map<std::string, std::vector<const CausalSpan*>> groups;  // deterministic order
  for (const auto& s : spans) groups[s.name].push_back(&s);

  std::unordered_map<SpanId, std::vector<const CausalSpan*>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }

  // The resource a straggler waited on: its longest Wait-category
  // descendant, rendered as "<name> on <lane>".
  auto waited_on = [&children](const CausalSpan& top) -> std::string {
    const CausalSpan* longest = nullptr;
    std::vector<const CausalSpan*> stack{&top};
    while (!stack.empty()) {
      const CausalSpan* s = stack.back();
      stack.pop_back();
      if (s != &top && s->category == SpanCategory::Wait &&
          (longest == nullptr || s->duration() > longest->duration())) {
        longest = s;
      }
      auto it = children.find(s->id);
      if (it != children.end()) {
        stack.insert(stack.end(), it->second.begin(), it->second.end());
      }
    }
    if (longest == nullptr) return {};
    if (longest->lane.empty()) return longest->name;
    return longest->name + " on " + longest->lane;
  };

  std::vector<Straggler> out;
  for (const auto& [name, members] : groups) {
    if (members.size() < min_group) continue;
    std::vector<sim::Duration> durations;
    durations.reserve(members.size());
    for (const CausalSpan* s : members) durations.push_back(s->duration());
    const sim::Duration p95 = nearest_rank_p95(std::move(durations));
    for (const CausalSpan* s : members) {
      if (s->duration() <= p95) continue;
      Straggler st;
      st.span = s->id;
      st.name = s->name;
      st.lane = s->lane;
      st.duration = s->duration();
      st.p95 = p95;
      st.waited_on = waited_on(*s);
      out.push_back(std::move(st));
    }
  }
  // Most egregious first; span id breaks ties deterministically.
  std::sort(out.begin(), out.end(), [](const Straggler& a, const Straggler& b) {
    const sim::Duration ea = a.duration - a.p95;
    const sim::Duration eb = b.duration - b.p95;
    if (ea != eb) return ea > eb;
    return a.span < b.span;
  });
  return out;
}

void export_straggler_metrics(const std::vector<Straggler>& stragglers, MetricsRegistry& m) {
  m.gauge("trace_stragglers_total").set(static_cast<double>(stragglers.size()));
}

}  // namespace gflink::obs
