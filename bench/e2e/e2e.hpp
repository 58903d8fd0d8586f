#pragma once

// Shared plumbing of the end-to-end benchmark program (fademl_e2e): the
// metric report, the workload interface, small statistics helpers and the
// span-timeline analysis behind the per-layer breakdown.
//
// Every workload constant (attack budgets, sweep defenses, serve config,
// load ladder) lives in this directory on purpose: an edit to
// bench/bench_common.hpp or to the CLI defaults must not silently change
// what the benchmark measures.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fademl/fademl.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One named measurement. Everything a run measures goes into the report;
/// run.py picks the end-to-end or per-layer subset that BENCHMARK.json
/// names.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics plus the correctness tally of one run. `attempted` counts the
/// workload's operations (adversarial examples, classified images, served
/// requests); `failed` counts the ones that broke a correctness gate.
class Report {
 public:
  /// Insert or overwrite `name`.
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  void attempt(int64_t n = 1) { attempted_ += n; }
  /// Count one failed operation; the first few messages are kept for the
  /// artifact and stderr.
  void fail(const std::string& what);
  /// Add another report's attempted/failed tally and failure messages.
  void absorb_tally(const Report& other);
  [[nodiscard]] int64_t attempted() const { return attempted_; }
  [[nodiscard]] int64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<Metric> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// One benchmark workload. Construction is the timed, workload-specific
/// part of set-up (pipelines, services, servers); prepare() draws the
/// inputs from the seed, untimed; measure() runs for a wall-time budget.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate this run's inputs from `seed` (same seed, same inputs). May
  /// query the pipeline to label them; never timed. Inputs that cannot be
  /// generated are a failure in `report`, and measure() is then skipped.
  virtual void prepare(uint64_t seed, Report& report) = 0;

  /// Run for about `seconds` of wall time. Records the end-to-end
  /// `throughput_per_s` and `latency_ms`, the workload's own per-layer
  /// values, and the attempted/failed tally.
  virtual void measure(double seconds, Report& report) = 0;

  /// Names of the spans whose summed duration is the workload's blocking
  /// busy time; the per-layer shares divide by it.
  [[nodiscard]] virtual std::vector<std::string> root_spans() const = 0;

  /// Private metric registries (service, server) merged into the metrics
  /// dump next to the global one.
  [[nodiscard]] virtual std::vector<const fademl::obs::MetricsRegistry*>
  registries() const {
    return {};
  }

  /// Workload-specific per-layer values read off the traced phase's span
  /// timeline.
  virtual void trace_metrics(
      const std::vector<fademl::obs::TraceEvent>& /*events*/,
      Report& /*report*/) const {}
};

std::unique_ptr<Workload> make_attack(const fademl::core::Experiment& exp);
std::unique_ptr<Workload> make_sweep(const fademl::core::Experiment& exp);
/// `over_wire` puts the service behind net::Server and drives it through
/// net::Client connections (the `wire` workload); otherwise requests go
/// straight to InferenceService::submit (the `serve` workload).
std::unique_ptr<Workload> make_serve(const fademl::core::Experiment& exp,
                                     bool over_wire);

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

// ---- span timeline ----------------------------------------------------------

/// Self time per layer inside the workload's root spans, reconstructed
/// from the trace timeline. A span's self time is its duration minus its
/// direct child layer spans; time in spans the analysis does not know
/// (pool chunks, for instance) stays with the enclosing layer.
struct LayerBreakdown {
  double busy_ms = 0.0;  ///< summed root-span duration
  /// Layer -> summed self time: "filter", "forward", "backward", "vjp",
  /// "replay", "compile", "attack", "other" (root self time).
  std::map<std::string, double> self_ms;
  /// Span name -> every duration seen inside a root (for percentiles).
  std::map<std::string, std::vector<double>> durations_ms;
};

LayerBreakdown analyze_spans(const std::vector<fademl::obs::TraceEvent>& events,
                             const std::vector<std::string>& root_names);

/// Durations (ms) of the spans named `name` that start inside the last
/// span named `window` (any thread).
std::vector<double> durations_within(
    const std::vector<fademl::obs::TraceEvent>& events,
    const std::string& window, const std::string& name);

}  // namespace e2e
