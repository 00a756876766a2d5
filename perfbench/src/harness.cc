#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

void Tracer::BeginOp(uint32_t op) {
  op_ = op;
  current_ = -1;
}

void Tracer::EndOp() { current_ = -1; }

int32_t Tracer::Open(const char* name) {
  spans_.push_back(Span{name, NowNs(), 0, current_, op_});
  current_ = static_cast<int32_t>(spans_.size() - 1);
  return current_;
}

void Tracer::Close(int32_t index) {
  spans_[index].end_ns = NowNs();
  current_ = spans_[index].parent;
}

SpanSummary Summarize(const std::vector<Span>& spans) {
  SpanSummary out;
  std::vector<uint64_t> child_ns(spans.size(), 0);
  std::vector<uint64_t> last_child_end(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) {
      out.violations.push_back(std::string("span not closed: ") + s.name);
      continue;
    }
    if (s.parent < 0) continue;
    const Span& p = spans[s.parent];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns || p.op != s.op) {
      out.violations.push_back(std::string(s.name) + " escapes its parent " +
                               p.name);
    }
    if (s.start_ns < last_child_end[s.parent]) {
      out.violations.push_back(std::string(s.name) + " overlaps a sibling");
    }
    last_child_end[s.parent] = s.end_ns;
    child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  // Per op: Σ self over every span of the op must equal the root span.
  std::map<uint32_t, uint64_t> op_self;
  std::map<uint32_t, uint64_t> op_root;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const uint64_t dur = s.end_ns - s.start_ns;
    const uint64_t self = dur - std::min(dur, child_ns[i]);
    out.self_us[s.name] += static_cast<double>(self) / 1e3;
    out.durations_us[s.name].Add(static_cast<double>(dur) / 1e3);
    op_self[s.op] += self;
    if (s.parent < 0) {
      op_root[s.op] += dur;
      out.op_total_us += static_cast<double>(dur) / 1e3;
    }
  }
  for (const auto& [op, root] : op_root) {
    if (op_self[op] != root) {
      out.violations.push_back("op " + std::to_string(op) +
                               ": layer self times do not sum to the op");
    }
  }
  return out;
}

bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}";
  }
  os << "\n]\n";
  return static_cast<bool>(os);
}

uint64_t HistogramSumNs(std::string_view name) {
  return flexrel::telemetry::Registry::Global().GetHistogram(name)->Snap().sum;
}

uint64_t Counter(std::string_view name) {
  return flexrel::telemetry::Registry::Global().GetCounter(name)->value();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RunResult::Fail(std::string why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

namespace {

void JsonString(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

void JsonNumber(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  os << buf;
}

void MetricMap(std::ostringstream& os, const std::vector<Measured>& m) {
  os << "{";
  for (size_t i = 0; i < m.size(); ++i) {
    if (i > 0) os << ", ";
    JsonString(os, m[i].name);
    os << ": {\"value\": ";
    JsonNumber(os, m[i].value);
    os << ", \"unit\": ";
    JsonString(os, m[i].unit);
    os << "}";
  }
  os << "}";
}

}  // namespace

std::string RunResult::ToJson() const {
  std::ostringstream os;
  os << "{\"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) os << ", ";
    JsonString(os, failures[i]);
  }
  os << "], \"metrics\": ";
  MetricMap(os, metrics);
  os << ", \"layers\": ";
  MetricMap(os, layers);
  os << ", \"info\": {";
  for (size_t i = 0; i < info.size(); ++i) {
    if (i > 0) os << ", ";
    JsonString(os, info[i].first);
    os << ": ";
    JsonString(os, info[i].second);
  }
  os << "}}";
  return os.str();
}

void HostSpeed::Tick() {
  static const std::vector<uint64_t> keys = [] {
    std::vector<uint64_t> out(1 << 15);
    uint64_t x = 0;
    for (uint64_t& k : out) {  // splitmix64
      uint64_t z = (x += 0x9E3779B97F4A7C15ull);
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      k = z ^ (z >> 31);
    }
    return out;
  }();
  if (NowNs() - last_ns_ < 250'000'000ull) return;
  const uint64_t t0 = NowNs();
  std::unordered_map<uint64_t, uint32_t> map;
  for (uint32_t i = 0; i < keys.size(); ++i) map[keys[i]] = i;
  uint64_t sum = 0;
  for (uint64_t k : keys) sum += map.find(k)->second;
  std::vector<uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  sum += sorted[sum % sorted.size()];
  last_ns_ = NowNs();
  samples_us_.push_back(static_cast<double>(last_ns_ - t0) / 1e3);
  // Keeps the kernel's result observable, so it cannot be optimized away.
  if (sum == 0) samples_us_.back() += 1e-9;
}

double HostSpeed::KernelUs() const { return MedianOf(samples_us_); }

double HostSpeed::Scale() const {
  const double us = KernelUs();
  return us > 0 ? kReferenceKernelUs / us : 1;
}

void EmitEndToEnd(RunResult* r, double setup_s, const Samples& ops,
                  double measured_s, double scale) {
  const double p50 = ops.Quantile(0.5);
  const double p90 = ops.Quantile(0.9);
  const double per_s =
      measured_s > 0 ? static_cast<double>(ops.count()) / measured_s : 0;
  r->Metric("setup_s", setup_s * scale, "s");
  r->Metric("op_p50_us", p50 * scale, "us");
  r->Metric("op_p90_us", p90 * scale, "us");
  r->Metric("ops_per_s", per_s / scale, "1/s");
  r->Metric("peak_rss_mb", PeakRssMb(), "MB");
  r->Metric("raw_setup_s", setup_s, "s");
  r->Metric("raw_op_p50_us", p50, "us");
  r->Metric("raw_op_p90_us", p90, "us");
  r->Metric("raw_ops_per_s", per_s, "1/s");
  r->Metric("host_scale", scale, "ratio");
}

void EmitEngineLayers(RunResult* r, double ops, const SpanSummary& spans,
                      const Settings& settings, const Tracer& tracer) {
  ops = std::max(ops, 1.0);
  auto median_of = [&](const char* name) {
    auto it = spans.durations_us.find(name);
    return it == spans.durations_us.end() ? 0.0 : it->second.Quantile(0.5);
  };
  auto share_of = [&](std::initializer_list<const char*> names) {
    double self = 0;
    for (const char* name : names) {
      auto it = spans.self_us.find(name);
      if (it != spans.self_us.end()) self += it->second;
    }
    return spans.op_total_us > 0 ? 100.0 * self / spans.op_total_us : 0.0;
  };
  r->Layer("query.parse_us", median_of("query.parse"), "us");
  r->Layer("optimizer.rewrite_us", median_of("optimizer.rewrite"), "us");
  r->Layer("algebra.eval_us", median_of("algebra.eval"), "us");
  r->Layer("query.parse_share_pct", share_of({"query.parse"}), "%");
  r->Layer("optimizer.rewrite_share_pct", share_of({"optimizer.rewrite"}), "%");
  r->Layer("algebra.eval_share_pct", share_of({"algebra.eval"}), "%");
  r->Layer("core.write_share_pct",
           share_of({"core.update", "core.update_rows", "core.apply_batch",
                     "core.insert"}),
           "%");
  r->Layer("engine.discovery_share_pct",
           share_of({"engine.discovery.levelwise", "engine.discovery.hybrid"}),
           "%");
  r->Layer("engine.validator_share_pct", share_of({"engine.validator.audit"}),
           "%");
  r->Layer("bench.glue_share_pct", share_of({"op"}), "%");

  const double lookups =
      static_cast<double>(Counter("engine.pli_cache.lookups"));
  r->Layer("engine.pli_cache.hit_ratio",
           lookups > 0 ? static_cast<double>(Counter("engine.pli_cache.hits")) /
                             lookups
                       : 0,
           "ratio");
  r->Layer("engine.pli_cache.get_us",
           static_cast<double>(HistogramSumNs("engine.pli_cache.get_ns")) /
               1e3 / ops,
           "us/op");
  for (const char* name :
       {"flushes", "flush.per_row", "flush.batched", "flush.dropped",
        "publishes", "evictions"}) {
    r->Layer(std::string("engine.pli_cache.") + name,
             static_cast<double>(
                 Counter(std::string("engine.pli_cache.") + name)) /
                 ops,
             "count/op");
  }
  r->Layer("engine.pli.intersections",
           static_cast<double>(Counter("engine.pli.intersections")) / ops,
           "count/op");
  r->Layer("engine.pli.intersect_us",
           static_cast<double>(HistogramSumNs("engine.pli.intersect_ns")) /
               1e3 / ops,
           "us/op");
  r->Layer("engine.validator.checks",
           static_cast<double>(Counter("engine.validator.ad_checks") +
                               Counter("engine.validator.fd_checks")) /
               ops,
           "count/op");
  r->Layer("engine.validator.check_us",
           static_cast<double>(HistogramSumNs("engine.validator.check_ns")) /
               1e3 / ops,
           "us/op");
  r->Layer("engine.validator.maximal_rhs",
           static_cast<double>(Counter("engine.validator.maximal_rhs")) / ops,
           "count/op");
  r->Layer("engine.validator.maximal_rhs_us",
           static_cast<double>(
               HistogramSumNs("engine.validator.maximal_rhs_ns")) /
               1e3 / ops,
           "us/op");
  r->Layer("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  r->Layer("trace.violations", static_cast<double>(spans.violations.size()),
           "count");
  if (!spans.violations.empty()) {
    r->Attempt();
    r->Fail("trace check: " + spans.violations.front());
  }

  const std::string stem = settings.trace_dir + "/" + settings.workload +
                           "-seed" + std::to_string(settings.seed);
  std::ofstream dump(stem + "-telemetry.json");
  dump << flexrel::telemetry::Registry::Global().ToJson();
  dump.close();
  if (!dump || !WriteSpansJson(tracer.spans(), stem + "-spans.json")) {
    r->Attempt();
    r->Fail("could not write the trace files under " + settings.trace_dir);
  }
  r->Info("trace_stem", stem);
}

double OverheadPct(const Samples& traced, const Samples& before,
                   const Samples& after) {
  Samples untraced = before;
  untraced.Append(after);
  const double base = untraced.Quantile(0.5);
  return base > 0 ? 100.0 * (traced.Quantile(0.5) / base - 1) : 0;
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
