// fademl_e2e: the end-to-end benchmark program.
//
//   fademl_e2e --workload <attack|sweep|serve|wire> --seed <n>
//              --seconds <s> --trace <0|1>
//
// One workload per process, run from the repository root. Set-up first
// trains the experiment model from scratch into a fresh directory under
// .bench_build/ that is removed when the process ends, so every run
// measures training with the code being built and no run reads another's
// checkpoint (nor the tracked ones under artifacts/). The rest of set-up
// (load that checkpoint, synthesize the dataset, build the workload's
// pipelines/service/server) then runs kSetupRuns times and reports its
// median. The seed generates the inputs, and the workload runs for
// --seconds. Every measured value is printed as `name value unit` and
// written with the run's environment to artifacts/E2E_<workload>.json. The
// process exits 1 when any correctness gate failed.
//
// With --trace 1 the run is split in two halves: untraced, then traced.
// The traced half's span timeline and the library's metric registries give
// the per-layer breakdown; comparing the halves gives the tracing
// overhead. End-to-end numbers always come from an untraced run.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include <unistd.h>

#include "e2e.hpp"

namespace {

using namespace fademl;
using e2e::Clock;
using e2e::Report;

constexpr int kSetupRuns = 5;
constexpr size_t kTraceCapacity = size_t{1} << 18;
constexpr const char* kOutDir = "artifacts";
constexpr const char* kModelDirPrefix = ".bench_build/e2e_model.";

const char* const kWorkloads[] = {"attack", "sweep", "serve", "wire"};

/// Per-layer values that only some workloads produce; a workload that
/// bypasses the layer reports 0, so every traced run carries every name.
const std::pair<const char*, const char*> kWorkloadLayerMetrics[] = {
    {"attack.examples_per_s", "1/s"},
    {"attack.step_ms.lbfgs.n16", "ms"},
    {"attack.step_ms.fgsm.n16", "ms"},
    {"attack.step_ms.bim.n16", "ms"},
    {"attack.step_ms.lbfgs.n8", "ms"},
    {"attack.step_ms.fgsm.n8", "ms"},
    {"attack.step_ms.bim.n8", "ms"},
    {"attack.step_ms.lbfgs.n1", "ms"},
    {"attack.step_ms.fgsm.n1", "ms"},
    {"attack.step_ms.bim.n1", "ms"},
    {"attack.success_rate", "fraction"},
    {"attack.grad_queries", "count"},
    {"attack.rows_per_query", "count"},
    {"attack.success_per_kgrad", "count"},
    {"attack.cost_ratio.n8", "ratio"},
    {"attack.cost_ratio.n1", "ratio"},
    {"sweep.top1", "fraction"},
    {"filters.cost_ratio.lap32", "ratio"},
    {"filters.cost_ratio.lar3", "ratio"},
    {"filters.cost_ratio.dct50", "ratio"},
    {"filters.cost_ratio.squeeze", "ratio"},
    {"serve.queue.share", "fraction"},
    {"serve.gather.share", "fraction"},
    {"serve.infer.share", "fraction"},
    {"serve.batch_occupancy", "count"},
    {"serve.shed_frac", "fraction"},
    {"serve.tail_ratio", "ratio"},
    {"serve.max_rps_slo", "1/s"},
    {"serve.capacity_rps", "1/s"},
    {"gen.late_frac", "fraction"},
    {"net.outside_infer.share", "fraction"},
    {"net.retries", "count"},
    {"net.reconnects", "count"},
    {"net.error_frames", "count"},
};

std::unique_ptr<e2e::Workload> make_workload(const std::string& name,
                                             const core::Experiment& exp) {
  if (name == "attack") {
    return e2e::make_attack(exp);
  }
  if (name == "sweep") {
    return e2e::make_sweep(exp);
  }
  return e2e::make_serve(exp, /*over_wire=*/name == "wire");
}

std::string env_or_unset(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "unset" : v;
}

int64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// This process's model cache: created empty, removed with its contents
/// when the run ends (also when it ends by an exception).
class ModelDir {
 public:
  ModelDir() : path_(kModelDirPrefix + std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ModelDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ModelDir(const ModelDir&) = delete;
  ModelDir& operator=(const ModelDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Per-layer values of the traced half: span self-time shares of the
/// workload's busy time, stage percentiles, and registry counters.
void layer_metrics(const e2e::Workload& workload,
                   const std::vector<obs::TraceEvent>& events,
                   const std::map<std::string, int64_t>& counters_before,
                   Report& report) {
  const e2e::LayerBreakdown b =
      e2e::analyze_spans(events, workload.root_spans());
  const auto share = [&](const char* layer) {
    const auto it = b.self_ms.find(layer);
    return b.busy_ms > 0.0 && it != b.self_ms.end() ? it->second / b.busy_ms
                                                    : 0.0;
  };
  report.set("core.filter.share", share("filter"), "fraction");
  report.set("core.forward.share", share("forward"), "fraction");
  report.set("core.backward.share", share("backward"), "fraction");
  report.set("core.vjp.share", share("vjp"), "fraction");
  report.set("plan.replay.share", share("replay"), "fraction");
  report.set("plan.compile.share", share("compile"), "fraction");
  report.set("attacks.bookkeeping.share", share("attack"), "fraction");
  report.set("e2e.other.share", share("other"), "fraction");
  const auto p50 = [&](const char* span) {
    const auto it = b.durations_ms.find(span);
    return it == b.durations_ms.end() ? 0.0 : e2e::median(it->second);
  };
  report.set("filters.apply_ms.p50", p50("filter.apply"), "ms");
  report.set("plan.replay_ms.p50", p50("plan.replay"), "ms");

  const auto delta = [&](const char* name) {
    return static_cast<double>(counter(name) - counters_before.at(name));
  };
  report.set("plan.compiles", delta("plan.compiles"), "count");
  report.set("plan.tape_fallbacks", delta("plan.tape_fallbacks"), "count");
  const double jobs = delta("pool.jobs");
  const double inline_jobs = delta("pool.jobs_inline");
  report.set("pool.jobs", jobs, "count");
  report.set("pool.inline_share",
             jobs + inline_jobs > 0.0 ? inline_jobs / (jobs + inline_jobs)
                                      : 0.0,
             "fraction");

  workload.trace_metrics(events, report);
  report.set("obs.spans", static_cast<double>(events.size()), "count");
  report.set("obs.dropped_spans",
             static_cast<double>(obs::TraceCollector::instance().dropped()),
             "count");
}

void write_artifact(const std::string& path, const std::string& workload,
                    uint64_t seed, double seconds, bool trace,
                    const Report& report) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot write " + path);
  }
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value("fademl.e2e.v1");
  w.key("workload").value(workload);
  w.key("seed").value(seed);
  w.key("seconds").value(seconds);
  w.key("trace").value(trace);
  // The knobs are left at their defaults; recorded so numbers from hosts
  // or environments that differ are not compared blindly.
  w.key("environment").begin_object();
  w.key("FADEML_NUM_THREADS").value(env_or_unset("FADEML_NUM_THREADS"));
  w.key("FADEML_CPU_LEVEL").value(env_or_unset("FADEML_CPU_LEVEL"));
  w.key("FADEML_DISABLE_PLAN").value(env_or_unset("FADEML_DISABLE_PLAN"));
  w.key("dispatch_tier").value(simd::level_name(simd::active_level()));
  w.key("hardware_concurrency")
      .value(static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.key("pool_threads").value(parallel::num_threads());
  w.key("plan_enabled").value(plan::plans_enabled());
  w.end_object();
  w.key("correct").value(report.failed() == 0);
  w.key("attempted").value(report.attempted());
  w.key("failed").value(report.failed());
  w.key("failures").begin_array();
  for (const std::string& f : report.failures()) {
    w.value(f);
  }
  w.end_array();
  w.key("metrics").begin_object();
  for (const e2e::Metric& m : report.metrics()) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  os << "\n";
  if (!os) {
    throw std::runtime_error("failed writing " + path);
  }
}

int run(const io::ArgParser& args) {
  const std::string name = args.get("workload", "");
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), name) ==
      std::end(kWorkloads)) {
    throw std::invalid_argument("--workload must be attack, sweep, serve or "
                                "wire, got '" + name + "'");
  }
  const int64_t seed = args.get_int("seed", -1);
  const double seconds = args.get_double("seconds", 0.0);
  const int64_t trace_flag = args.get_int("trace", 0);
  if (seed < 0 || seconds <= 0.0 || (trace_flag != 0 && trace_flag != 1)) {
    throw std::invalid_argument(
        "--seed must be >= 0, --seconds > 0 and --trace 0 or 1");
  }
  const bool trace = trace_flag == 1;
  const std::string out_dir = kOutDir;
  obs::set_trace_enabled(false);

  const ModelDir model_dir;
  core::ExperimentConfig config;
  config.cache_dir = model_dir.path();
  config.verbose = false;

  // Set-up, first what a fresh checkout pays once: training the model.
  obs::Histogram& train_step =
      obs::MetricsRegistry::global().histogram("train.step_ms");
  const auto train_start = Clock::now();
  (void)core::make_experiment(config);
  const double train_s =
      e2e::ms_between(train_start, Clock::now()) / 1000.0;
  const obs::Histogram::Snapshot steps = train_step.snapshot();
  std::fprintf(stderr, "[e2e] trained the experiment model in %.1f s\n",
               train_s);

  // Then what every later process pays before it can do any work.
  std::vector<double> setup_s;
  std::vector<double> experiment_s;
  std::vector<double> workload_s;
  std::unique_ptr<core::Experiment> exp;
  std::unique_ptr<e2e::Workload> workload;
  for (int i = 0; i < kSetupRuns; ++i) {
    workload.reset();
    exp.reset();
    const auto t0 = Clock::now();
    exp = std::make_unique<core::Experiment>(core::make_experiment(config));
    const auto t1 = Clock::now();
    workload = make_workload(name, *exp);
    const auto t2 = Clock::now();
    setup_s.push_back(e2e::ms_between(t0, t2) / 1000.0);
    experiment_s.push_back(e2e::ms_between(t0, t1) / 1000.0);
    workload_s.push_back(e2e::ms_between(t1, t2) / 1000.0);
  }
  Report report;
  workload->prepare(static_cast<uint64_t>(seed), report);
  // A workload whose inputs could not be generated is not measured: the
  // failed gate is the run's result.
  const bool inputs_ready = report.failed() == 0;
  if (inputs_ready && !trace) {
    workload->measure(seconds, report);
  } else if (inputs_ready) {
    Report untraced;
    workload->measure(seconds / 2.0, untraced);
    std::map<std::string, int64_t> before;
    for (const char* c : {"plan.compiles", "plan.tape_fallbacks", "pool.jobs",
                          "pool.jobs_inline"}) {
      before[c] = counter(c);
    }
    obs::TraceCollector& collector = obs::TraceCollector::instance();
    collector.set_capacity(kTraceCapacity);
    collector.clear();
    obs::set_trace_enabled(true);
    workload->measure(seconds / 2.0, report);
    obs::set_trace_enabled(false);
    layer_metrics(*workload, collector.events(), before, report);
    // Tracing should be inert: the traced half's headline number against
    // the untraced half's.
    const bool latency_primary = name == "serve" || name == "wire";
    const double overhead =
        latency_primary
            ? report.get("latency_ms") / untraced.get("latency_ms") - 1.0
            : untraced.get("throughput_per_s") /
                      report.get("throughput_per_s") - 1.0;
    report.set("obs.overhead_pct", 100.0 * overhead, "%");
    report.absorb_tally(untraced);
    std::filesystem::create_directories(out_dir);
    collector.write_chrome_trace_file(out_dir + "/E2E_" + name +
                                      "_trace.json");
    const std::string metrics_path =
        out_dir + "/E2E_" + name + "_metrics.json";
    std::ofstream metrics(metrics_path);
    std::vector<const obs::MetricsRegistry*> registries{
        &obs::MetricsRegistry::global()};
    for (const obs::MetricsRegistry* r : workload->registries()) {
      registries.push_back(r);
    }
    obs::write_metrics_json(metrics, registries);
    if (!metrics) {
      throw std::runtime_error("failed writing " + metrics_path);
    }
    for (const auto& [metric, unit] : kWorkloadLayerMetrics) {
      if (!report.has(metric)) {
        report.set(metric, 0.0, unit);
      }
    }
  }
  report.set("setup_s", e2e::median(setup_s), "s");
  report.set("setup.train_s", train_s, "s");
  report.set("train.step_ms.mean", steps.mean(), "ms");
  report.set("setup.experiment_s", e2e::median(experiment_s), "s");
  report.set("setup.workload_s", e2e::median(workload_s), "s");
  workload.reset();
  report.set("peak_rss_mb", e2e::peak_rss_mb(), "MB");

  for (const e2e::Metric& m : report.metrics()) {
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %lld failed %lld\n",
              static_cast<long long>(report.attempted()),
              static_cast<long long>(report.failed()));
  std::filesystem::create_directories(out_dir);
  const std::string path = out_dir + "/E2E_" + name + ".json";
  write_artifact(path, name, static_cast<uint64_t>(seed), seconds, trace,
                 report);
  std::printf("artifact %s\n", path.c_str());
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  io::ArgParser args("fademl end-to-end benchmark",
                     {"workload", "seed", "seconds", "trace"});
  try {
    args.parse(argc - 1, argv + 1);
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fademl_e2e: %s\n%s\n", e.what(),
                 args.usage("fademl_e2e").c_str());
    return 2;
  }
}
