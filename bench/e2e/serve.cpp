// `serve` and `wire` workloads: the served filtered classifier.
//
// `serve` drives serve::InferenceService::submit in-process with an
// open-loop Poisson ladder: queueing, micro-batch gathering and shedding,
// without the network. `wire` puts the same service behind net::Server on
// loopback and drives it through net::Client connections: framing, CRC,
// sockets and the per-connection handler threads. Each is the other's
// control: a change to the net layer should move only `wire`.
//
// Open-loop latency is timed from each request's due time, not from when
// it was sent, so a stalled generator or a full connection shows up as
// latency instead of silently thinning the offered load.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "e2e.hpp"
#include "fademl/net/client.hpp"
#include "fademl/net/registry.hpp"
#include "fademl/net/server.hpp"

namespace e2e {
namespace {

using namespace fademl;

// `fademl serve` defaults, pinned here so a CLI default change cannot move
// the benchmark.
constexpr int kReplicas = 2;
constexpr const char* kFilterSpec = "lap32";
constexpr size_t kQueueCapacity = 64;
constexpr size_t kMaxBatch = 8;
constexpr std::chrono::milliseconds kBatchWindow{2};
constexpr const char* kModelName = "gtsrb";

constexpr size_t kImagePool = 256;
constexpr float kRenderNoise = 0.06f;
/// Latency limit behind goodput and serve.max_rps_slo.
constexpr double kSloMs = 10.0;
/// A rate whose generator ran later than this at p99 did not offer the
/// load it claims.
constexpr double kMaxGeneratorLagMs = 1.0;

/// `serve` ladder: light load (the gather window sets latency_ms), a
/// loaded rate (batches fill, queues form; its SLO goodput is
/// throughput_per_s), and overload at or past the 8-12k rps capacity of
/// two replicas on four cores (shedding). The rest of the run is a closed
/// loop that keeps kClosedInFlight requests outstanding, so every round
/// runs a full batch: the service's capacity. Capacity swings by a fifth
/// between runs on a shared four-core host, too much to gate, so it is a
/// per-layer value.
struct Step {
  double rps;
  double share;  ///< of the run's seconds
};
constexpr Step kLadder[] = {{500.0, 0.35}, {4000.0, 0.3}, {12000.0, 0.1}};
constexpr double kLatencyRps = 500.0;
constexpr double kLoadedRps = 4000.0;
constexpr double kOverloadRps = 12000.0;
constexpr double kClosedShare = 0.25;
constexpr size_t kClosedInFlight = 2 * kReplicas * kMaxBatch;
/// Capacity is the median over windows of this length.
constexpr double kRateWindowMs = 250.0;

/// `wire`: open-loop Poisson at kWireRps for kWireOpenShare of the run,
/// then closed-loop (each connection sends its next request as soon as
/// the previous one returns) for the rest. kWireRps keeps the
/// synchronous connections well below their connections/RTT ceiling.
constexpr double kWireRps = 400.0;
constexpr double kWireOpenShare = 0.75;
constexpr unsigned kMaxConnections = 4;

serve::ServiceConfig service_config(int64_t image_size) {
  serve::ServiceConfig config;
  config.queue_capacity = kQueueCapacity;
  config.overload_policy = serve::OverloadPolicy::kShed;
  config.max_batch = kMaxBatch;
  config.batch_window = kBatchWindow;
  config.admission.expected_height = image_size;
  config.admission.expected_width = image_size;
  return config;
}

/// A fresh, untrained replica with the experiment's architecture.
std::unique_ptr<core::InferencePipeline> blank_replica(uint64_t seed,
                                                       int64_t divisor,
                                                       int64_t image_size) {
  Rng rng(seed ^ 0xA5A5A5A5ull);
  nn::VggConfig vgg = nn::VggConfig::scaled(divisor);
  vgg.input_size = image_size;
  return std::make_unique<core::InferencePipeline>(
      nn::make_vggnet(vgg, rng), filters::parse_filter(kFilterSpec));
}

/// Poisson arrival offsets (ms from the start) over `seconds`.
std::vector<double> poisson_offsets_ms(double rps, double seconds, Rng& rng) {
  std::vector<double> offsets;
  const double mean_gap_ms = 1000.0 / rps;
  double t = 0.0;
  for (;;) {
    const double u = std::max(1e-12, 1.0 - static_cast<double>(rng.uniform()));
    t += -mean_gap_ms * std::log(u);
    if (t >= seconds * 1000.0) {
      return offsets;
    }
    offsets.push_back(t);
  }
}

Clock::time_point at_offset(Clock::time_point start, double offset_ms) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(offset_ms));
}

/// One open-loop load point.
struct Point {
  double rps = 0.0;
  double seconds = 0.0;
  int64_t sent = 0;
  int64_t shed = 0;
  int64_t within_slo = 0;
  std::vector<double> latency_ms;  ///< completed requests, from due time
  std::vector<double> lag_ms;      ///< how late each request was sent
  std::vector<double> outside_infer_ms;  ///< wire: round trip - server infer
  std::vector<std::string> errors;
  double occupancy = 0.0;  ///< mean live requests per batched predict

  [[nodiscard]] double p(double q) const { return quantile(latency_ms, q); }
  [[nodiscard]] double lag_p99() const { return quantile(lag_ms, 0.99); }
  /// Offered rate times the share of offered requests answered within the
  /// SLO (shed and failed requests miss it). Scaling the share, rather
  /// than counting answers per second, keeps the Poisson draw of the
  /// arrival count out of the number.
  [[nodiscard]] double goodput_rps() const {
    return sent + shed > 0 ? rps * static_cast<double>(within_slo) /
                                 static_cast<double>(sent + shed)
                           : 0.0;
  }
  [[nodiscard]] double shed_frac() const {
    return sent + shed > 0 ? static_cast<double>(shed) /
                                 static_cast<double>(sent + shed)
                           : 0.0;
  }
  [[nodiscard]] bool meets_slo() const {
    return !latency_ms.empty() && shed == 0 && errors.empty() &&
           p(0.99) <= kSloMs && lag_p99() <= kMaxGeneratorLagMs;
  }
};

std::string rate_tag(double rps) {
  return "r" + std::to_string(static_cast<int64_t>(rps));
}

/// A thread body that records, instead of letting escape, any exception
/// `body(arg)` throws.
template <typename Body>
auto guarded(const Body& body, unsigned arg, std::vector<std::string>& errors,
             std::mutex& mu) {
  return [&body, arg, &errors, &mu] {
    try {
      body(arg);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu);
      errors.push_back(std::string("client thread failed: ") + e.what());
    }
  };
}

/// Mean live requests per predict round between two stats snapshots.
double mean_occupancy(const serve::ServiceStats& before,
                      const serve::ServiceStats& after) {
  double rounds = 0.0;
  double requests = 0.0;
  for (size_t i = 0; i < after.batch_occupancy.size(); ++i) {
    const int64_t prior =
        i < before.batch_occupancy.size() ? before.batch_occupancy[i] : 0;
    const double n = static_cast<double>(after.batch_occupancy[i] - prior);
    rounds += n;
    requests += n * static_cast<double>(i + 1);
  }
  return rounds > 0.0 ? requests / rounds : 0.0;
}

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const core::Experiment& exp, bool over_wire)
      : over_wire_(over_wire),
        image_size_(exp.config.image_size),
        reference_(exp.model, filters::parse_filter(kFilterSpec)) {
    const uint64_t seed = exp.config.seed;
    const int64_t divisor = exp.config.width_divisor;
    const int64_t size = exp.config.image_size;
    if (!over_wire_) {
      // The CLI's replica layout: replica 0 serves the in-memory model,
      // the others load their own copy of the checkpoint.
      std::vector<std::unique_ptr<core::InferencePipeline>> replicas;
      replicas.push_back(std::make_unique<core::InferencePipeline>(
          exp.model, filters::parse_filter(kFilterSpec)));
      for (int i = 1; i < kReplicas; ++i) {
        std::unique_ptr<core::InferencePipeline> r =
            blank_replica(seed, divisor, size);
        nn::load_checkpoint(r->model(), exp.config.checkpoint_path());
        replicas.push_back(std::move(r));
      }
      service_ = std::make_shared<serve::InferenceService>(
          std::move(replicas), service_config(size));
      return;
    }
    // `fademl serve`: the registry verifies the checkpoint and loads it
    // into fresh replicas, then the server listens on loopback.
    net::ModelSpec spec;
    spec.name = kModelName;
    spec.checkpoint_path = exp.config.checkpoint_path();
    spec.factory = [seed, divisor, size] {
      std::vector<std::unique_ptr<core::InferencePipeline>> replicas;
      for (int i = 0; i < kReplicas; ++i) {
        replicas.push_back(blank_replica(seed, divisor, size));
      }
      return replicas;
    };
    spec.service = service_config(size);
    registry_ = std::make_unique<net::ModelRegistry>();
    registry_->install(std::move(spec));
    service_ = registry_->lookup(kModelName);
    server_ = std::make_unique<net::Server>(*registry_, net::ServerConfig{});
    server_->start();
  }

  ~ServeWorkload() override {
    if (server_) {
      server_->stop();
    }
    service_.reset();
    if (registry_) {
      registry_->clear();
    }
  }

  ServeWorkload(const ServeWorkload&) = delete;
  ServeWorkload& operator=(const ServeWorkload&) = delete;

  void prepare(uint64_t seed, Report& /*report*/) override {
    // The expected label of every request image, from a batched predict
    // on the same model and filter: served rows must match it exactly.
    Rng rng(seed);
    for (size_t i = 0; i < kImagePool; ++i) {
      const int64_t cls = rng.uniform_int(data::kGtsrbNumClasses);
      images_.push_back(data::render_sign(
          cls, data::RenderParams::randomize(rng, kRenderNoise),
          image_size_));
    }
    const std::vector<core::Prediction> preds = reference_.predict_batch(
        nn::stack_images(images_), core::ThreatModel::kIII);
    for (const core::Prediction& p : preds) {
      expected_.push_back(p.label);
    }
    schedule_rng_ = Rng(seed ^ 0x5EEDF00Dull);
  }

  void measure(double seconds, Report& report) override {
    if (over_wire_) {
      measure_wire(seconds, report);
    } else {
      measure_serve(seconds, report);
    }
  }

  [[nodiscard]] std::vector<std::string> root_spans() const override {
    return {"serve.infer"};
  }

  [[nodiscard]] std::vector<const obs::MetricsRegistry*> registries()
      const override {
    std::vector<const obs::MetricsRegistry*> out{&service_->metrics()};
    if (server_) {
      out.push_back(&server_->metrics());
    }
    return out;
  }

  void trace_metrics(const std::vector<obs::TraceEvent>& events,
                     Report& report) const override {
    // Stage composition of a request's server-side time at the latency
    // point: mean queue wait (per request) against mean gather and infer
    // time (per batched round).
    const std::string window = over_wire_ ? "e2e.wire.open_loop"
                                          : "e2e.serve." + rate_tag(kLatencyRps);
    const auto mean = [&](const char* span) {
      const std::vector<double> d = durations_within(events, window, span);
      double sum = 0.0;
      for (double v : d) {
        sum += v;
      }
      return d.empty() ? 0.0 : sum / static_cast<double>(d.size());
    };
    const double queue = mean("serve.queue");
    const double gather = mean("serve.gather");
    const double infer = mean("serve.infer");
    const double total = queue + gather + infer;
    report.set("serve.queue.share", total > 0.0 ? queue / total : 0.0,
               "fraction");
    report.set("serve.gather.share", total > 0.0 ? gather / total : 0.0,
               "fraction");
    report.set("serve.infer.share", total > 0.0 ? infer / total : 0.0,
               "fraction");
  }

 private:
  /// Record a point's latency/lag/shed/occupancy values under its rate.
  void report_point(const Point& pt, Report& report) const {
    const std::string r = rate_tag(pt.rps);
    report.set("serve.p50_ms." + r, pt.p(0.50), "ms");
    report.set("serve.p90_ms." + r, pt.p(0.90), "ms");
    report.set("serve.p99_ms." + r, pt.p(0.99), "ms");
    report.set("serve.samples." + r, static_cast<double>(pt.latency_ms.size()),
               "count");
    report.set("serve.goodput_rps." + r, pt.goodput_rps(), "1/s");
    report.set("serve.completed_rps." + r,
               static_cast<double>(pt.latency_ms.size()) / pt.seconds, "1/s");
    report.set("serve.shed_frac." + r, pt.shed_frac(), "fraction");
    report.set("serve.batch_occupancy." + r, pt.occupancy, "count");
    report.set("gen.lag_ms.p99." + r, pt.lag_p99(), "ms");
    report.set("gen.valid." + r, pt.lag_p99() <= kMaxGeneratorLagMs ? 1.0 : 0.0,
               "bool");
    for (const std::string& e : pt.errors) {
      report.fail(r + ": " + e);
    }
  }

  /// Shared per-layer values of the point that sets `latency_ms`.
  void report_latency_point(const Point& pt, Report& report) const {
    const double p50 = pt.p(0.50);
    report.set("serve.tail_ratio", p50 > 0.0 ? pt.p(0.99) / p50 : 0.0,
               "ratio");
    report.set("serve.batch_occupancy", pt.occupancy, "count");
    int64_t late = 0;
    for (double lag : pt.lag_ms) {
      late += lag > kMaxGeneratorLagMs ? 1 : 0;
    }
    report.set("gen.late_frac",
               pt.lag_ms.empty() ? 0.0
                                 : static_cast<double>(late) /
                                       static_cast<double>(pt.lag_ms.size()),
               "fraction");
  }

  /// Check a served label against the batched reference.
  void check_label(int64_t got, size_t image, std::vector<std::string>& errors,
                   std::mutex* mu = nullptr) const {
    if (got == expected_[image]) {
      return;
    }
    const std::string msg = "image " + std::to_string(image) + " served as " +
                            std::to_string(got) + ", expected " +
                            std::to_string(expected_[image]);
    if (mu != nullptr) {
      std::lock_guard<std::mutex> lock(*mu);
      errors.push_back(msg);
    } else {
      errors.push_back(msg);
    }
  }

  // ---- serve ---------------------------------------------------------------

  void measure_serve(double seconds, Report& report) {
    Point latency_point;
    double max_rps_slo = 0.0;
    for (const Step& step : kLadder) {
      Point pt = submit_point(step.rps, seconds * step.share);
      report.attempt(pt.sent + pt.shed);
      report_point(pt, report);
      if (pt.meets_slo()) {
        max_rps_slo = std::max(max_rps_slo, step.rps);
      }
      if (step.rps == kLoadedRps) {
        report.set("throughput_per_s", pt.goodput_rps(), "1/s");
      } else if (step.rps == kOverloadRps) {
        report.set("serve.shed_frac", pt.shed_frac(), "fraction");
      }
      if (step.rps == kLatencyRps) {
        latency_point = std::move(pt);
      }
    }
    report.set("latency_ms", latency_point.p(0.50), "ms");
    report.set("serve.capacity_rps",
               submit_closed_loop(seconds * kClosedShare, report), "1/s");
    report_latency_point(latency_point, report);
    report.set("serve.max_rps_slo", max_rps_slo, "1/s");
  }

  /// Closed loop from this thread: keep kClosedInFlight requests
  /// outstanding, replacing each as it completes. Returns the median
  /// completion rate over kRateWindowMs windows.
  double submit_closed_loop(double seconds, Report& report) {
    std::deque<std::pair<std::future<serve::InferenceResult>, size_t>>
        inflight;
    std::vector<double> rates;
    size_t next_image = 0;
    int64_t sent = 0;
    int64_t window_done = 0;
    const auto start = Clock::now();
    auto window_start = start;
    while (ms_between(start, Clock::now()) < seconds * 1000.0 ||
           !inflight.empty()) {
      const bool filling = ms_between(start, Clock::now()) < seconds * 1000.0;
      while (filling && inflight.size() < kClosedInFlight) {
        const size_t image = next_image++ % images_.size();
        ++sent;
        try {
          inflight.emplace_back(service_->submit(images_[image]), image);
        } catch (const std::exception& e) {
          report.fail(std::string("closed loop submit failed: ") + e.what());
        }
      }
      if (inflight.empty()) {
        break;
      }
      try {
        const serve::InferenceResult r = inflight.front().first.get();
        std::vector<std::string> errors;
        check_label(r.prediction.label, inflight.front().second, errors);
        for (const std::string& e : errors) {
          report.fail("closed loop: " + e);
        }
      } catch (const std::exception& e) {
        report.fail(std::string("closed loop request failed: ") + e.what());
      }
      inflight.pop_front();
      ++window_done;
      const auto now = Clock::now();
      if (filling && ms_between(window_start, now) >= kRateWindowMs) {
        rates.push_back(static_cast<double>(window_done) /
                        (ms_between(window_start, now) / 1000.0));
        window_start = now;
        window_done = 0;
      }
    }
    report.attempt(sent);
    return median(rates);
  }

  /// One ladder step: this thread generates, a collector thread waits on
  /// the futures in submission order.
  Point submit_point(double rps, double seconds) {
    Point pt;
    pt.rps = rps;
    pt.seconds = seconds;
    const std::vector<double> offsets =
        poisson_offsets_ms(rps, seconds, schedule_rng_);
    pt.lag_ms.reserve(offsets.size());
    pt.latency_ms.reserve(offsets.size());

    struct Pending {
      std::future<serve::InferenceResult> result;
      Clock::time_point submitted;
      double lag_ms = 0.0;
      size_t image = 0;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> pending;
    bool generating = true;
    std::thread collector([&] {
      for (;;) {
        Pending item;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !pending.empty() || !generating; });
          if (pending.empty()) {
            return;
          }
          item = std::move(pending.front());
          pending.pop_front();
        }
        try {
          const serve::InferenceResult r = item.result.get();
          const double latency = item.lag_ms + r.total_ms;
          obs::record_span("e2e.request", "e2e", item.submitted,
                           at_offset(item.submitted, r.total_ms));
          pt.latency_ms.push_back(latency);
          pt.within_slo += latency <= kSloMs ? 1 : 0;
          check_label(r.prediction.label, item.image, pt.errors, &mu);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu);
          pt.errors.push_back(std::string("request failed: ") + e.what());
        }
      }
    });

    const auto stop_collector = [&] {
      {
        std::lock_guard<std::mutex> lock(mu);
        generating = false;
      }
      cv.notify_one();
      collector.join();
    };
    const serve::ServiceStats before = service_->stats();
    try {
      obs::TraceSpan window("e2e.serve." + rate_tag(rps), "e2e");
      const auto start = Clock::now();
      for (size_t i = 0; i < offsets.size(); ++i) {
        const Clock::time_point due = at_offset(start, offsets[i]);
        std::this_thread::sleep_until(due);
        const Clock::time_point now = Clock::now();
        const double lag = ms_between(due, now);
        pt.lag_ms.push_back(lag);
        const size_t image = i % images_.size();
        try {
          std::future<serve::InferenceResult> f =
              service_->submit(images_[image]);
          {
            std::lock_guard<std::mutex> lock(mu);
            pending.push_back({std::move(f), now, lag, image});
          }
          cv.notify_one();
          ++pt.sent;
        } catch (const serve::QueueFullError&) {
          ++pt.shed;  // designed overload response, counted in shed_frac
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu);
          pt.errors.push_back(std::string("submit failed: ") + e.what());
        }
      }
      stop_collector();
    } catch (...) {
      stop_collector();
      throw;
    }
    pt.occupancy = mean_occupancy(before, service_->stats());
    return pt;
  }

  // ---- wire ----------------------------------------------------------------

  [[nodiscard]] net::ClientConfig client_config(unsigned index) const {
    net::ClientConfig config;
    config.port = server_->port();
    config.retry.jitter_seed = 0xC0FFEEull + index;
    return config;
  }

  [[nodiscard]] static unsigned connections() {
    return std::clamp(std::thread::hardware_concurrency(), 1u,
                      kMaxConnections);
  }

  void measure_wire(double seconds, Report& report) {
    attempts_ = retries_ = reconnects_ = 0;
    const net::ServerStats server_before = server_->stats();
    const serve::ServiceStats service_before = service_->stats();
    Point open;
    {
      obs::TraceSpan window("e2e.wire.open_loop", "e2e");
      open = wire_open_loop(seconds * kWireOpenShare);
    }
    open.occupancy = mean_occupancy(service_before, service_->stats());
    const double capacity =
        wire_closed_loop(seconds * (1.0 - kWireOpenShare), report);
    report.attempt(open.sent);
    report_point(open, report);

    report.set("latency_ms", open.p(0.50), "ms");
    report.set("throughput_per_s", open.goodput_rps(), "1/s");
    report.set("serve.capacity_rps", capacity, "1/s");
    report_latency_point(open, report);
    double outside = 0.0;
    double total = 0.0;
    for (double v : open.outside_infer_ms) {
      outside += v;
    }
    for (double v : open.latency_ms) {
      total += v;
    }
    report.set("net.outside_infer.share", total > 0.0 ? outside / total : 0.0,
               "fraction");
    report.set("wire.outside_infer_ms.p50", median(open.outside_infer_ms),
               "ms");
    const net::ServerStats server_after = server_->stats();
    report.set("net.frames_served",
               static_cast<double>(server_after.frames_served -
                                   server_before.frames_served),
               "count");
    report.set("net.error_frames",
               static_cast<double>(server_after.error_frames -
                                   server_before.error_frames),
               "count");
    report.set("net.attempts", static_cast<double>(attempts_), "count");
    report.set("net.retries", static_cast<double>(retries_), "count");
    report.set("net.reconnects", static_cast<double>(reconnects_), "count");
  }

  void add_client_stats(const net::ClientStats& s) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    attempts_ += s.attempts;
    retries_ += s.retries;
    reconnects_ += s.reconnects;
  }

  /// Open-loop Poisson load over `connections()` synchronous clients:
  /// each thread claims the next due arrival as soon as it is free.
  Point wire_open_loop(double seconds) {
    Point pt;
    pt.rps = kWireRps;
    pt.seconds = seconds;
    const std::vector<double> offsets =
        poisson_offsets_ms(kWireRps, seconds, schedule_rng_);
    std::atomic<size_t> next{0};
    std::mutex mu;
    const auto start = Clock::now();
    const auto connection = [&](unsigned t) {
      net::Client client(client_config(t));
      std::vector<double> latency;
      std::vector<double> lag;
      std::vector<double> outside;
      int64_t within_slo = 0;
      for (size_t i = next.fetch_add(1); i < offsets.size();
           i = next.fetch_add(1)) {
        const Clock::time_point due = at_offset(start, offsets[i]);
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        lag.push_back(ms_between(due, sent));
        const size_t image = i % images_.size();
        try {
          net::PredictResult r;
          {
            obs::TraceSpan span("e2e.wire.predict", "e2e");
            r = client.predict(kModelName, images_[image]);
          }
          const Clock::time_point done = Clock::now();
          latency.push_back(ms_between(due, done));
          outside.push_back(ms_between(sent, done) - r.infer_ms);
          within_slo += latency.back() <= kSloMs ? 1 : 0;
          check_label(r.prediction.label, image, pt.errors, &mu);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu);
          pt.errors.push_back(std::string("request lost: ") + e.what());
        }
      }
      add_client_stats(client.stats());
      std::lock_guard<std::mutex> lock(mu);
      pt.latency_ms.insert(pt.latency_ms.end(), latency.begin(),
                           latency.end());
      pt.lag_ms.insert(pt.lag_ms.end(), lag.begin(), lag.end());
      pt.outside_infer_ms.insert(pt.outside_infer_ms.end(), outside.begin(),
                                 outside.end());
      pt.within_slo += within_slo;
    };
    {
      std::vector<std::jthread> threads;
      for (unsigned t = 0; t < connections(); ++t) {
        threads.emplace_back(guarded(connection, t, pt.errors, mu));
      }
    }
    pt.sent = static_cast<int64_t>(offsets.size());
    return pt;
  }

  /// Closed loop: every connection sends back to back for `seconds`;
  /// returns the median completion rate over kRateWindowMs windows.
  double wire_closed_loop(double seconds, Report& report) {
    std::atomic<int64_t> completed{0};
    std::atomic<int64_t> sent{0};
    std::mutex mu;
    std::vector<std::string> errors;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = at_offset(start, seconds * 1000.0);
    const auto connection = [&](unsigned t) {
      net::Client client(client_config(connections() + t));
      for (size_t i = t; Clock::now() < end; i += connections()) {
        const size_t image = i % images_.size();
        sent.fetch_add(1);
        try {
          const net::PredictResult r =
              client.predict(kModelName, images_[image]);
          completed.fetch_add(1);
          check_label(r.prediction.label, image, errors, &mu);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu);
          errors.push_back(std::string("request lost: ") + e.what());
        }
      }
      add_client_stats(client.stats());
    };
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < connections(); ++t) {
      threads.emplace_back(guarded(connection, t, errors, mu));
    }
    std::vector<double> rates;
    int64_t last_count = 0;
    for (Clock::time_point window = start;;) {
      const Clock::time_point next = at_offset(window, kRateWindowMs);
      if (next > end) {
        break;
      }
      std::this_thread::sleep_until(next);
      const Clock::time_point now = Clock::now();
      const int64_t count = completed.load();
      rates.push_back(static_cast<double>(count - last_count) /
                      (ms_between(window, now) / 1000.0));
      last_count = count;
      window = now;
    }
    for (std::jthread& t : threads) {
      t.join();
    }
    report.attempt(sent.load());
    for (const std::string& e : errors) {
      report.fail("closed loop: " + e);
    }
    return median(rates);
  }

  bool over_wire_;
  int64_t image_size_;
  /// Labels the request images; shares the experiment model with the
  /// first `serve` replica, so it only runs before the load starts.
  core::InferencePipeline reference_;
  std::unique_ptr<net::ModelRegistry> registry_;
  std::shared_ptr<serve::InferenceService> service_;
  std::unique_ptr<net::Server> server_;
  std::vector<Tensor> images_;
  std::vector<int64_t> expected_;
  Rng schedule_rng_;
  std::mutex stats_mu_;
  int64_t attempts_ = 0;
  int64_t retries_ = 0;
  int64_t reconnects_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const fademl::core::Experiment& exp,
                                     bool over_wire) {
  return std::make_unique<ServeWorkload>(exp, over_wire);
}

}  // namespace e2e
