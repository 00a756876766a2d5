// Shared plumbing of the benchmark binary: clocks, latency samples, the
// in-memory span tracer, telemetry deltas, and the result record every
// workload fills in.
//
// Spans are recorded by the benchmark around each public library call it
// makes (never inside the library). Each span carries its name, start, end,
// parent span and op id; the library's own telemetry spans live on the same
// monotonic clock (telemetry::NowNs), so the two can be lined up afterwards.

#ifndef FLEXREL_PERFBENCH_HARNESS_H_
#define FLEXREL_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/telemetry.h"

namespace perfbench {

/// Monotonic nanoseconds, the clock the library's telemetry spans use.
inline uint64_t NowNs() { return flexrel::telemetry::NowNs(); }

/// Latency samples of one operation kind, in microseconds.
class Samples {
 public:
  void Add(double us) { values_.push_back(us); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// One benchmark-side span. `parent` indexes the tracer's span vector (-1
/// for an op's root span).
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;
  uint32_t op;
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per scope.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Starts op `op`: the spans opened until EndOp are attributed to it.
  void BeginOp(uint32_t op);
  void EndOp();
  int32_t Open(const char* name);
  void Close(int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  int32_t current_ = -1;
  uint32_t op_ = 0;
};

/// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->enabled() ? tracer->Open(name) : -1) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (index_ >= 0) tracer_->Close(index_);
  }

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Self time and count per span name, plus the checks on the span tree:
/// children nest inside their parent and do not overlap each other, and per
/// op the self times of all its spans sum exactly to the root span.
struct SpanSummary {
  std::map<std::string, double> self_us;        ///< total self time per name
  std::map<std::string, Samples> durations_us;  ///< per-span durations
  double op_total_us = 0;                       ///< Σ root-span durations
  std::vector<std::string> violations;
};
SpanSummary Summarize(const std::vector<Span>& spans);

/// Writes the spans as a JSON array of {name, start_ns, end_ns, parent, op}.
bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path);

/// Sum (ns) of a telemetry histogram — the in-library time a timed section
/// of the library accumulated. Deltas around one call give that call's
/// share.
uint64_t HistogramSumNs(std::string_view name);
uint64_t Counter(std::string_view name);

/// Peak resident set size of this process, in MiB (getrusage).
double PeakRssMb();

/// What one workload run reports. Metrics keep their unit; `failures`
/// holds the first few failure messages for the log.
struct Measured {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  std::vector<Measured> metrics;  ///< end-to-end, from untraced ops
  std::vector<Measured> layers;   ///< per-layer, from the traced ops
  std::vector<std::pair<std::string, std::string>> info;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  void Info(const std::string& key, const std::string& value) {
    info.push_back({key, value});
  }
  void Attempt() { ++attempted; }
  /// Records a failed op (counted once per call).
  void Fail(std::string why);
  std::string ToJson() const;
};

/// Command-line settings shared by every workload.
struct Settings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its files
};

/// Host-speed probe. The shared hosts the bounds were fitted on change
/// single-thread speed by 30-40 % between runs a minute apart, and by 2x
/// within an hour, which moved the raw registry timings of ten consecutive
/// runs by up to 0.37 of their median. The probe times a fixed kernel
/// (hash-map build and probe of 2^15 keys, then a sort) on the client
/// thread between ops, at most every 250 ms, so its samples span the
/// measured phase; its median says how fast the host ran this run. Probe
/// time is never inside an op's timing.
class HostSpeed {
 public:
  /// The kernel time the correction scales to: the probe's median on the
  /// 4-vCPU machine the bounds were fitted on.
  static constexpr double kReferenceKernelUs = 5000;

  /// Times the kernel if 250 ms have passed since the last sample.
  void Tick();
  /// Median kernel time of this run, in microseconds.
  double KernelUs() const;
  /// Factor that turns a time measured in this run into the time on a host
  /// that runs the kernel in kReferenceKernelUs.
  double Scale() const;

 private:
  std::vector<double> samples_us_;
  uint64_t last_ns_ = 0;
};

/// The end-to-end metrics every workload reports: median set-up time, op
/// latency median and 90th percentile, ops per second of measured time,
/// and this process's peak RSS. BENCHMARK.json gates all but the 90th
/// percentile. Timings are multiplied by `scale`
/// (HostSpeed::Scale, or 1 for uncorrected timings); the uncorrected ones
/// are reported as well, prefixed `raw_`.
void EmitEndToEnd(RunResult* r, double setup_s, const Samples& ops,
                  double measured_s, double scale);

/// The layer metrics every traced run reports: span medians and self-time
/// shares of the benchmark's own spans, and the library's telemetry counters
/// per op. Also writes the spans and the telemetry snapshot under the trace
/// dir, and counts a failed op when the span tree breaks its checks.
void EmitEngineLayers(RunResult* r, double ops, const SpanSummary& spans,
                      const Settings& settings, const Tracer& tracer);

/// Tracing overhead in percent: the traced median against the median of the
/// untraced samples taken before and after it, so a drift in the machine's
/// speed during the run does not read as overhead.
double OverheadPct(const Samples& traced, const Samples& before,
                   const Samples& after);

/// Median of a few set-up repetitions (seconds).
double MedianOf(std::vector<double> values);

}  // namespace perfbench

#endif  // FLEXREL_PERFBENCH_HARNESS_H_
