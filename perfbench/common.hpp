// Shared pieces of the perfbench runner: clocks, the in-memory span
// recorder, sample statistics, the metric sink and host evidence.
//
// Spans are recorded only by the runner's own code, around calls into the
// library layers, and only on the runner's main thread. They are kept in
// memory and written as JSONL once the workload has finished.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ------------------------------------------------------------------ spans

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< 0 = not part of a request
};

class Tracer {
 public:
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span under the innermost open one; returns its id (0 when
  /// tracing is off).
  std::uint64_t open(const char* name, std::uint64_t request = 0) {
    if (!enabled_) return 0;
    Span span;
    span.name = name;
    span.start_ns = now_ns();
    span.id = next_id_++;
    span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    span.request = request;
    open_.push_back(spans_.size());
    spans_.push_back(span);
    return span.id;
  }

  void close(std::uint64_t id) {
    if (id == 0 || open_.empty()) return;
    Span& span = spans_[open_.back()];
    if (span.id != id) return;  // mismatched close: keep the tree intact
    span.end_ns = now_ns();
    open_.pop_back();
  }

  /// Records an already finished span under the innermost open one.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t request = 0) {
    if (!enabled_) return;
    Span span;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.id = next_id_++;
    span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
    span.request = request;
    spans_.push_back(span);
  }

  std::size_t size() const noexcept { return spans_.size(); }

  /// Writes one JSON object per span. Returns false when the file cannot
  /// be written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of open spans, innermost last
};

Tracer& tracer();

/// RAII span around one call into a layer.
class TraceScope {
 public:
  explicit TraceScope(const char* name, std::uint64_t request = 0)
      : id_(tracer().open(name, request)) {}
  ~TraceScope() { tracer().close(id_); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  std::uint64_t id_;
};

// ------------------------------------------------------------- statistics

/// Linear-interpolated quantile q in [0, 1] of `values` (copied).
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Seconds per call of `body`: the median over `batches` batches of
/// `calls` calls, each batch one span.
template <typename Body>
double seconds_per_call(const char* span_name, int batches, int calls,
                        Body body) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    TraceScope span(span_name);
    const std::int64_t start = now_ns();
    for (int i = 0; i < calls; ++i) body();
    samples.push_back(seconds_since(start) / calls);
  }
  return median(samples);
}

// ----------------------------------------------------------------- output

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produces. `attempted` counts checked operations;
/// `failed` those whose output was wrong or that errored.
struct Outcome {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< first few failure descriptions
  std::vector<std::string> notes;     ///< informational lines (stderr)

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (problems.size() < 8) problems.push_back(what);
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Wall-clock budget of one run: phases take fractions of it.
class Budget {
 public:
  explicit Budget(double seconds) : start_ns_(now_ns()), seconds_(seconds) {}
  /// True while less than `fraction` of the budget has been used.
  bool before(double fraction) const {
    return seconds_since(start_ns_) < fraction * seconds_;
  }

 private:
  std::int64_t start_ns_;
  double seconds_;
};

std::size_t hardware_threads();

/// Pins the calling thread, and the threads it creates afterwards, to the
/// CPU it is running on.
void pin_to_one_cpu();

// Workload entry points (one translation unit each).
Outcome run_campaign(const RunOptions& options, bool extended);
Outcome run_runtime(const RunOptions& options);
Outcome run_serve(const RunOptions& options);

/// Serve-mix request schedule, exposed for the schedule determinism test.
struct ServeSchedule {
  std::vector<std::string> lines;
  std::vector<bool> heavy;        ///< kind=sim
  std::vector<double> unit_due;   ///< arrival times at offered rate 1/s
};
ServeSchedule make_serve_schedule(std::uint64_t seed, std::size_t count);

}  // namespace perfbench
