// `attack` workload: the Fig. 9 hot path. Filter-aware (TM-III through
// LAP(32)) L-BFGS, FGSM and BIM cohorts, so nearly all the time goes to
// the backward pass, the filter's vector-Jacobian product and the attack
// bookkeeping. Cohort sizes cycle 16 -> 8 -> 1: the batched attack path
// at two widths plus the per-image path.
//
// The run passes over a pool of kPoolCycles cycles again and again. A
// pass repeats the same arithmetic, so every turn (pool cycle, cohort
// size, attack kind) is timed by its fastest pass: on a shared host,
// interference only ever adds time, and the fastest pass is the steadiest
// estimate of what the code costs.

#include <array>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>

#include "e2e.hpp"

namespace e2e {
namespace {

using namespace fademl;

// Fig. 9's budget, pinned here rather than read from bench_common.hpp.
constexpr float kEpsilon = 0.15f;
constexpr float kFgsmEpsilon = 0.28f;  // FGSM's ε-search ceiling
constexpr float kStepSize = 0.015f;
constexpr int kIterations = 40;
constexpr float kTargetConfidence = 0.90f;
constexpr int kLapWindow = 32;
constexpr float kRenderNoise = 0.06f;
constexpr size_t kCohortSizes[] = {16, 8, 1};
constexpr size_t kPairsPerCycle = 16 + 8 + 1;
/// Distinct cycles before the pool repeats: small enough that a run makes
/// two or more passes, large enough (150 pairs) to average over classes.
constexpr size_t kPoolCycles = 6;
constexpr size_t kPoolPairs = kPairsPerCycle * kPoolCycles;
/// Render attempts per pair before the model counts as broken, and per
/// source class before the pair moves on to another class, kClassStride
/// classes further (LAP(32) confuses some classes with their neighbours,
/// so a pair that gives up on one skips past them).
constexpr int kMaxRenderRounds = 32;
constexpr int kRendersPerClass = 8;
constexpr int64_t kClassStride = 11;

struct Kind {
  attacks::AttackKind kind;
  const char* name;
};
constexpr Kind kKinds[] = {{attacks::AttackKind::kLbfgs, "lbfgs"},
                           {attacks::AttackKind::kFgsm, "fgsm"},
                           {attacks::AttackKind::kBim, "bim"}};
constexpr size_t kSizes = std::size(kCohortSizes);
constexpr size_t kNumKinds = std::size(kKinds);

attacks::AttackConfig budget(attacks::AttackKind kind) {
  attacks::AttackConfig config;
  config.epsilon = kind == attacks::AttackKind::kFgsm ? kFgsmEpsilon : kEpsilon;
  config.step_size = kStepSize;
  config.max_iterations = kIterations;
  config.target_confidence = kTargetConfidence;
  config.fgsm_epsilon_search = true;
  return config;
}

/// First-choice source class of pool pair `j`, and the pair's target for
/// source class `source`. Fixed, so every seed asks for the same mix of
/// attacks (how many steps an attack takes depends mostly on the two
/// classes) and the seed only draws the renders: with random classes, the
/// work of a run, and so its throughput, moved with the seed.
int64_t source_class(size_t j) {
  return static_cast<int64_t>(j) % data::kGtsrbNumClasses;
}
int64_t target_class(size_t j, int64_t source) {
  const int64_t n = data::kGtsrbNumClasses;
  return (source + 1 + static_cast<int64_t>(j * 17) % (n - 1)) % n;
}

/// One timed turn: a cohort of one size attacked by one kind.
struct Turn {
  double best_ms = std::numeric_limits<double>::infinity();
  int64_t steps = 0;  ///< optimizer steps of the cohort, the same every pass
};

class AttackWorkload final : public Workload {
 public:
  explicit AttackWorkload(const core::Experiment& exp)
      : image_size_(exp.config.image_size),
        pipeline_(exp.model, filters::make_lap(kLapWindow)) {
    for (const Kind& k : kKinds) {
      attacks_.emplace_back(k.kind, budget(k.kind), /*filter_aware=*/true);
    }
  }

  void prepare(uint64_t seed, Report& report) override {
    // Each source is a seeded render of its pair's class that the
    // defended pipeline classifies correctly (an attack on a misclassified
    // source proves nothing).
    Rng rng(seed);
    sources_.assign(kPoolPairs, Tensor());
    std::vector<int64_t> classes(kPoolPairs);
    std::vector<size_t> missing(kPoolPairs);
    for (size_t j = 0; j < kPoolPairs; ++j) {
      classes[j] = source_class(j);
      missing[j] = j;
    }
    int64_t rendered = 0;
    for (int round = 0; round < kMaxRenderRounds && !missing.empty();
         ++round) {
      if (round > 0 && round % kRendersPerClass == 0) {
        for (size_t j : missing) {
          classes[j] = (classes[j] + kClassStride) % data::kGtsrbNumClasses;
        }
      }
      std::vector<Tensor> batch;
      for (size_t j : missing) {
        batch.push_back(data::render_sign(
            classes[j], data::RenderParams::randomize(rng, kRenderNoise),
            image_size_));
      }
      rendered += static_cast<int64_t>(batch.size());
      const std::vector<core::Prediction> preds = pipeline_.predict_batch(
          nn::stack_images(batch), core::ThreatModel::kIII);
      std::vector<size_t> still_missing;
      for (size_t i = 0; i < missing.size(); ++i) {
        if (preds[i].label == classes[missing[i]]) {
          sources_[missing[i]] = batch[i];
        } else {
          still_missing.push_back(missing[i]);
        }
      }
      missing = std::move(still_missing);
    }
    if (!missing.empty()) {
      report.attempt(rendered);
      report.fail(std::to_string(missing.size()) + " of " +
                  std::to_string(kPoolPairs) +
                  " pairs found no render classified correctly through "
                  "lap32 in " + std::to_string(rendered) +
                  " renders (first pair's last class: " +
                  std::to_string(classes[missing.front()]) + ")");
      return;
    }
    for (size_t j = 0; j < kPoolPairs; ++j) {
      targets_.push_back(target_class(j, classes[j]));
    }
  }

  void measure(double seconds, Report& report) override {
    obs::Histogram& backward =
        obs::MetricsRegistry::global().histogram("pipeline.backward_ms");
    const int64_t queries_before = backward.snapshot().count;

    std::vector<std::array<std::array<Turn, kNumKinds>, kSizes>> turns(
        kPoolCycles);
    int64_t rows = 0;  // gradient rows over every pass
    // First pass only, so these are a function of the seed alone.
    int64_t examples = 0;
    int64_t successes = 0;
    int64_t first_pass_rows = 0;
    uint32_t crc = 0;  // over the first cycle's adversarial bytes
    size_t cycles = 0;
    const auto start = Clock::now();
    for (; ms_between(start, Clock::now()) < seconds * 1000.0; ++cycles) {
      const size_t index = cycles % kPoolCycles;
      const bool first_pass = cycles < kPoolCycles;
      size_t offset = index * kPairsPerCycle;
      for (size_t s = 0; s < kSizes; ++s) {
        const size_t n = kCohortSizes[s];
        const std::vector<Tensor> src(sources_.begin() + offset,
                                      sources_.begin() + offset + n);
        const std::vector<int64_t> tgt(targets_.begin() + offset,
                                       targets_.begin() + offset + n);
        offset += n;
        for (size_t k = 0; k < kNumKinds; ++k) {
          std::vector<attacks::AttackResult> results;
          const auto t0 = Clock::now();
          try {
            obs::TraceSpan span("e2e.attack.cohort", "e2e");
            results = attacks_[k].run(pipeline_, src, tgt);
          } catch (const std::exception& e) {
            report.attempt(static_cast<int64_t>(n));
            for (size_t i = 0; i < n; ++i) {
              report.fail(std::string(kKinds[k].name) + " cohort threw: " +
                          e.what());
            }
            continue;
          }
          const double elapsed = ms_between(t0, Clock::now());
          int64_t cohort_steps = 0;
          for (const attacks::AttackResult& r : results) {
            cohort_steps += r.iterations;
          }
          Turn& turn = turns[index][s][k];
          turn.best_ms = std::min(turn.best_ms, elapsed);
          turn.steps = cohort_steps;
          rows += cohort_steps;
          const int64_t hits =
              check(results, src, tgt, attacks_[k].config().epsilon,
                    kKinds[k].name, report);
          if (first_pass) {
            examples += static_cast<int64_t>(n);
            successes += hits;
            first_pass_rows += cohort_steps;
          }
          if (cycles == 0) {
            for (const attacks::AttackResult& r : results) {
              crc = crc32(r.adversarial.data(),
                          static_cast<size_t>(r.adversarial.numel()) *
                              sizeof(float),
                          crc);
            }
          }
        }
      }
    }
    const int64_t queries = backward.snapshot().count - queries_before;
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    // Fastest-pass time and steps of the turns of one cohort size (or all
    // sizes) and one kind (or all kinds), over the pool cycles the run
    // reached.
    const size_t covered = std::min(cycles, kPoolCycles);
    const auto sum_turns = [&](size_t s_lo, size_t s_hi, size_t k_lo,
                               size_t k_hi) {
      std::pair<double, double> ms_steps{0.0, 0.0};
      for (size_t c = 0; c < covered; ++c) {
        for (size_t s = s_lo; s < s_hi; ++s) {
          for (size_t k = k_lo; k < k_hi; ++k) {
            const Turn& t = turns[c][s][k];
            if (std::isfinite(t.best_ms)) {
              ms_steps.first += t.best_ms;
              ms_steps.second += static_cast<double>(t.steps);
            }
          }
        }
      }
      return ms_steps;
    };

    // Time per optimizer step of one image (one gradient row), per kind
    // and cohort size. How many steps an attack needs depends on the pair
    // (it stops early at the target confidence), the cost of a step does
    // not, so the end-to-end numbers are per step with the three kinds
    // weighted equally: examples per second moved with the seed's renders.
    double mean_step_ms[kSizes] = {};
    for (size_t s = 0; s < kSizes; ++s) {
      for (size_t k = 0; k < kNumKinds; ++k) {
        const auto [ms, steps] = sum_turns(s, s + 1, k, k + 1);
        const double step_ms = ratio(ms, steps);
        report.set(std::string("attack.step_ms.") + kKinds[k].name + ".n" +
                       std::to_string(kCohortSizes[s]),
                   step_ms, "ms");
        mean_step_ms[s] += step_ms / static_cast<double>(kNumKinds);
      }
    }
    // Latency: one step of a single-image attack. Throughput: image-steps
    // per second in the 16-wide cohorts.
    report.set("latency_ms", mean_step_ms[kSizes - 1], "ms");
    report.set("throughput_per_s", ratio(1000.0, mean_step_ms[0]), "1/s");
    report.set("attack.examples_per_s",
               ratio(static_cast<double>(examples),
                     sum_turns(0, kSizes, 0, kNumKinds).first / 1000.0),
               "1/s");
    report.set("attack.cycles", static_cast<double>(cycles), "count");
    report.set("attack.success_rate",
               ratio(static_cast<double>(successes),
                     static_cast<double>(examples)),
               "fraction");
    report.set("attack.grad_queries", static_cast<double>(queries), "count");
    report.set("attack.rows_per_query",
               ratio(static_cast<double>(rows), static_cast<double>(queries)),
               "count");
    report.set("attack.success_per_kgrad",
               1000.0 * ratio(static_cast<double>(successes),
                              static_cast<double>(first_pass_rows)),
               "count");
    const auto per_example = [&](size_t s) {
      return ratio(sum_turns(s, s + 1, 0, kNumKinds).first,
                   static_cast<double>(covered * kNumKinds * kCohortSizes[s]));
    };
    report.set("attack.cost_ratio.n8", ratio(per_example(1), per_example(0)),
               "ratio");
    report.set("attack.cost_ratio.n1", ratio(per_example(2), per_example(0)),
               "ratio");
    // Printed so two builds can be compared by eye, not gated: the first
    // cycle's adversarial bytes are a pure function of the seed and the
    // library's arithmetic.
    std::fprintf(stderr, "[e2e] attack: first-cycle adversarial crc32 %08x\n",
                 crc);
  }

  [[nodiscard]] std::vector<std::string> root_spans() const override {
    return {"e2e.attack.cohort"};
  }

 private:
  /// Gate every adversarial on the ε-ball and the pixel box; returns how
  /// many reach their target class through the defended pipeline.
  int64_t check(const std::vector<attacks::AttackResult>& results,
                const std::vector<Tensor>& sources,
                const std::vector<int64_t>& targets, float epsilon,
                const char* kind, Report& report) {
    constexpr float kSlack = 1e-5f;
    report.attempt(static_cast<int64_t>(results.size()));
    if (results.size() != sources.size()) {
      report.fail(std::string(kind) + ": cohort returned " +
                  std::to_string(results.size()) + " results for " +
                  std::to_string(sources.size()) + " pairs");
      return 0;
    }
    std::vector<Tensor> adversarial;
    for (size_t i = 0; i < results.size(); ++i) {
      const Tensor& adv = results[i].adversarial;
      const float* a = adv.data();
      const float* s = sources[i].data();
      bool ok = adv.shape() == sources[i].shape();
      for (int64_t j = 0; ok && j < adv.numel(); ++j) {
        ok = a[j] >= 0.0f && a[j] <= 1.0f &&
             std::fabs(a[j] - s[j]) <= epsilon + kSlack;
      }
      if (!ok) {
        report.fail(std::string(kind) +
                    ": adversarial leaves the epsilon-ball or [0, 1]");
      }
      adversarial.push_back(adv);
    }
    const std::vector<core::Prediction> preds = pipeline_.predict_batch(
        nn::stack_images(adversarial), core::ThreatModel::kIII);
    int64_t hits = 0;
    for (size_t i = 0; i < preds.size(); ++i) {
      hits += preds[i].label == targets[i] ? 1 : 0;
    }
    return hits;
  }

  int64_t image_size_;
  core::InferencePipeline pipeline_;
  std::vector<attacks::BatchAttack> attacks_;
  std::vector<Tensor> sources_;
  std::vector<int64_t> targets_;
};

}  // namespace

std::unique_ptr<Workload> make_attack(const fademl::core::Experiment& exp) {
  return std::make_unique<AttackWorkload>(exp);
}

}  // namespace e2e
