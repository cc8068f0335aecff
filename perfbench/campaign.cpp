// campaign-paper and campaign-extended: Monte-Carlo campaigns through
// sim::run_monte_carlo, and nothing of the checkpoint runtime or serving.
//
// campaign-paper runs DoubleNbl, DoubleBof and Triple on the paper's base
// platform at a one-day platform MTBF, where failure-free runs of periods
// dominate: the batched kernel's guard-margin fast path and the bulk RNG
// fill do almost all the work. campaign-extended runs the same protocols
// with silent-error verification, with the fault predictor, and with both
// mixed with Weibull arrivals; those axes switch the fast path off, so the
// exact per-event state machine does all the work.
//
// ops_per_s: trials per second on a one-thread pool, the median over
//   rounds of long campaigns (every case once per round, fresh seeds).
// p50_ms: wall time of one short campaign on the one-thread pool
//   (fixed cost per campaign plus its trials). The nproc-thread pool, the
//   default of `dckpt simulate`, is timed only in the traced run: the
//   parallelism this VM grants moves between about 1 and 4 CPUs over
//   minutes, which no bound on an end-to-end metric could absorb.
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "model/period.hpp"
#include "model/predictor.hpp"
#include "model/scenario.hpp"
#include "model/sdc.hpp"
#include "model/waste.hpp"
#include "sim/batch_kernel.hpp"
#include "sim/runner.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace dckpt;

struct CampaignCase {
  std::string name;
  sim::SimConfig config;
  std::optional<util::Weibull> weibull;
  /// Closed-form waste the campaign's mean must match within 15% + 3
  /// standard errors; NaN where no closed form covers the axes.
  double model_waste = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t trials = 0;        ///< long campaign, one-thread pool
  std::uint64_t short_trials = 0;  ///< latency campaign
  std::uint64_t seed = 0;
  std::uint64_t short_seed = 0;
};

sim::SimConfig reference_config(model::Protocol protocol) {
  sim::SimConfig config;
  config.protocol = protocol;
  config.params = model::base_scenario().at_phi_ratio(0.25);
  config.params.nodes = 1026;  // divisible by both group sizes
  config.params.mtbf = 86400.0;
  config.period =
      model::optimal_period_closed_form(protocol, config.params).period;
  config.t_base = 1.6e6;
  config.stop_on_fatal = false;
  return config;
}

constexpr double kSdcRate = 4e-6;
constexpr double kVerifyCost = 20.0;
constexpr std::uint64_t kVerifyEvery = 2;

void enable_sdc(sim::SimConfig& config) {
  config.sdc_rate = kSdcRate;
  config.verify_cost = kVerifyCost;
  config.verify_every = kVerifyEvery;
  config.keep_last = 3;
}

void enable_predictor(sim::SimConfig& config) {
  config.pred_precision = 0.7;
  config.pred_recall = 0.6;
  config.pred_window = 0.0;
  config.proactive_cost = 5.0;
}

std::vector<CampaignCase> make_cases(bool extended, std::uint64_t seed) {
  using model::Protocol;
  std::vector<CampaignCase> cases;
  if (!extended) {
    for (const Protocol protocol :
         {Protocol::DoubleNbl, Protocol::DoubleBof, Protocol::Triple}) {
      CampaignCase c;
      c.name = std::string(model::protocol_name(protocol));
      c.config = reference_config(protocol);
      c.model_waste =
          model::waste(protocol, c.config.params, c.config.period);
      c.trials = 2048;
      c.short_trials = 256;
      cases.push_back(c);
    }
  } else {
    CampaignCase sdc;
    sdc.name = "sdc";
    sdc.config = reference_config(Protocol::DoubleNbl);
    enable_sdc(sdc.config);
    sdc.model_waste = model::waste_with_sdc(
        Protocol::DoubleNbl, sdc.config.params, sdc.config.period,
        model::SdcSpec{kSdcRate, kVerifyCost, kVerifyEvery});
    cases.push_back(sdc);

    CampaignCase pred;
    pred.name = "predictor";
    pred.config = reference_config(Protocol::Triple);
    enable_predictor(pred.config);
    pred.model_waste = model::waste_with_predictor(
        Protocol::Triple, pred.config.params, pred.config.period,
        model::PredictorSpec{pred.config.pred_precision,
                             pred.config.pred_recall, pred.config.pred_window,
                             pred.config.proactive_cost});
    cases.push_back(pred);

    CampaignCase mixed;
    mixed.name = "weibull+sdc+predictor";
    mixed.config = reference_config(Protocol::DoubleBof);
    enable_sdc(mixed.config);
    enable_predictor(mixed.config);
    mixed.weibull =
        util::Weibull::from_mean(0.7, mixed.config.params.node_mtbf());
    cases.push_back(mixed);
    // Per-trial work is heavy-tailed here (Weibull clusters, rollback
    // ladders), so long campaigns are longer: at 160 trials the seed alone
    // moved trials/s by 20%.
    for (auto& c : cases) {
      c.trials = 640;
      c.short_trials = 32;
    }
  }
  util::SplitMix64 seeds(seed ^ (extended ? 0xe7e7ULL : 0x9a9aULL));
  for (auto& c : cases) {
    c.config.validate();
    c.seed = seeds.next();
    c.short_seed = seeds.next();
  }
  return cases;
}

sim::MonteCarloResult campaign(const CampaignCase& c, std::uint64_t trials,
                               std::uint64_t seed, util::ThreadPool& pool) {
  sim::MonteCarloOptions options;
  options.trials = trials;
  options.seed = seed;
  options.threads = pool.thread_count();
  options.weibull = c.weibull;
  TraceScope span("sim.run_monte_carlo");
  return sim::run_monte_carlo(c.config, options, pool);
}

void append(std::vector<double>& out, const util::RunningStats& stats) {
  out.insert(out.end(), {static_cast<double>(stats.count()), stats.mean(),
                         stats.variance(), stats.min(), stats.max()});
}

/// Every aggregate of a campaign, for bit-identity comparisons.
std::vector<double> fingerprint(const sim::MonteCarloResult& r) {
  std::vector<double> out;
  for (const auto* stats :
       {&r.waste, &r.makespan, &r.failures, &r.risk_time, &r.sdc_injected,
        &r.sdc_detected, &r.verify_time, &r.rollback_depth, &r.alarms_raised,
        &r.proactive_ckpts, &r.true_predictions, &r.missed_failures,
        &r.proactive_time}) {
    append(out, *stats);
  }
  out.push_back(static_cast<double>(r.success.trials()));
  out.push_back(static_cast<double>(r.success.successes()));
  out.push_back(static_cast<double>(r.diverged));
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The util samplers at the batched kernel's block sizes.
void measure_samplers(std::uint64_t seed, Outcome& out) {
  util::Xoshiro256ss rng(seed);
  std::vector<std::uint64_t> words(64);  // the kernel's word block
  double sink = 0.0;
  const double fill_s = seconds_per_call("util.rng_fill", 15, 20000, [&] {
    rng.fill(words.data(), words.size());
    sink += static_cast<double>(words[0] & 1U);
  });
  const auto exponential = util::Exponential::from_mean(86400.0);
  const double exp_s = seconds_per_call(
      "util.exp_sample", 15, 200000, [&] { sink += exponential.sample(rng); });
  const auto weibull = util::Weibull::from_mean(0.7, 86400.0);
  const double weibull_s = seconds_per_call(
      "util.weibull_sample", 15, 200000, [&] { sink += weibull.sample(rng); });
  out.set("util.rng_fill_ns", fill_s * 1e9, "ns");
  out.set("util.exp_sample_ns", exp_s * 1e9, "ns");
  out.set("util.weibull_sample_ns", weibull_s * 1e9, "ns");
  if (sink == -1.0) out.notes.push_back("unreachable");
}

}  // namespace

Outcome run_campaign(const RunOptions& options, bool extended) {
  Outcome out;
  Budget budget(options.seconds);
  const std::size_t threads = hardware_threads();

  const auto check_waste = [&out](const CampaignCase& c,
                                  const sim::MonteCarloResult& result) {
    out.check(result.diverged == 0, c.name + ": diverged trials");
    if (!std::isfinite(c.model_waste)) return;
    const double band =
        0.15 * c.model_waste + 3.0 * result.waste.standard_error();
    out.check(std::abs(result.waste.mean() - c.model_waste) <= band,
              c.name + ": waste " + std::to_string(result.waste.mean()) +
                  " outside model " + std::to_string(c.model_waste) + " +- " +
                  std::to_string(band));
  };

  // Set-up: both pools started, every case's configuration built
  // (closed-form period, model waste) and the warm-up: each case's short
  // campaign on the fresh one-thread pool, which later short campaigns
  // must reproduce bit for bit. Repeated from scratch; the median is
  // reported. The long reference campaigns below stay out of it: their
  // heavy-tailed trials are throughput, which ops_per_s measures.
  constexpr int kSetupReps = 15;
  std::vector<double> setup_samples;
  std::unique_ptr<util::ThreadPool> pool1;
  std::unique_ptr<util::ThreadPool> pooln;
  std::vector<CampaignCase> cases;
  std::vector<std::vector<double>> ref_short;
  for (int i = 0; i < kSetupReps; ++i) {
    pool1.reset();
    pooln.reset();
    ref_short.clear();
    const std::int64_t start = now_ns();
    {
      TraceScope span("bench.setup");
      cases = make_cases(extended, options.seed);
      pool1 = std::make_unique<util::ThreadPool>(1);
      pooln = std::make_unique<util::ThreadPool>(threads);
      for (const auto& c : cases) {
        ref_short.push_back(
            fingerprint(campaign(c, c.short_trials, c.short_seed, *pool1)));
      }
    }
    setup_samples.push_back(seconds_since(start));
  }
  std::vector<sim::MonteCarloResult> ref_long;
  for (const auto& c : cases) {
    ref_long.push_back(campaign(c, c.trials, c.seed, *pool1));
  }

  // Untimed checks of the reference runs, and the kernel counters.
  sim::BatchKernelStats kernel;
  double kernel_events = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    const auto& result = ref_long[i];
    kernel.merge(result.kernel);
    kernel_events += static_cast<double>(result.kernel.fast_periods +
                                         result.kernel.exact_steps);
    // Reproducibility contract: the nproc pool gives the same aggregates.
    out.check(same_bits(fingerprint(campaign(c, c.trials, c.seed, *pooln)),
                        fingerprint(result)),
              c.name + ": nproc-thread aggregates differ from one-thread");
    check_waste(c, result);
  }

  // Timed rounds: every case once on the one-thread pool, each round with
  // fresh seeds (per-trial work is heavy-tailed, so one seed's campaign
  // can be 10% off the mean), then a batch of short campaigns taking
  // about as long. With tracing on, rounds alternate tracing off and on to
  // measure its overhead.
  const bool traced = tracer().enabled();
  std::vector<double> round_rates, traced_round_rates, round_ms;
  std::vector<std::vector<double>> mt_times(cases.size());
  std::vector<double> latencies_ms;
  std::size_t short_reps = 4;
  util::SplitMix64 round_seeds(options.seed ^ 0x70c0ULL);
  for (std::size_t round = 0; round < 3 || budget.before(0.9); ++round) {
    const bool trace_round = traced && round % 2 == 1;
    tracer().set_enabled(trace_round);
    double long_round = 0.0, round_trials = 0.0;
    for (const auto& c : cases) {
      TraceScope span("bench.long_campaign");
      const std::uint64_t seed = round_seeds.next();
      const std::int64_t start = now_ns();
      const auto result = campaign(c, c.trials, seed, *pool1);
      long_round += seconds_since(start);
      round_trials += static_cast<double>(c.trials);
      check_waste(c, result);
    }
    (trace_round ? traced_round_rates : round_rates)
        .push_back(round_trials / long_round);
    if (!trace_round) round_ms.push_back(long_round * 1e3 / cases.size());
    double short_round = 0.0;
    for (std::size_t rep = 0; rep < short_reps; ++rep) {
      for (std::size_t i = 0; i < cases.size(); ++i) {
        for (util::ThreadPool* pool : {pool1.get(), pooln.get()}) {
          if (pool == pooln.get() && !traced) continue;
          TraceScope span("bench.short_campaign");
          const std::int64_t start = now_ns();
          const auto result = campaign(cases[i], cases[i].short_trials,
                                       cases[i].short_seed, *pool);
          const double elapsed = seconds_since(start);
          short_round += elapsed;
          if (pool == pool1.get()) {
            latencies_ms.push_back(elapsed * 1e3);
          } else {
            mt_times[i].push_back(elapsed);
          }
          out.check(same_bits(fingerprint(result), ref_short[i]),
                    cases[i].name + ": short campaign not reproducible");
        }
      }
    }
    if (round == 0 && short_round > 0.0) {
      short_reps = std::max<std::size_t>(
          1, static_cast<std::size_t>(short_reps * long_round / short_round));
    }
  }
  tracer().set_enabled(traced);

  const double trials_per_s = median(round_rates);
  if (!traced) {
    out.set("setup_s", median(setup_samples), "s");
    out.set("ops_per_s", trials_per_s, "1/s");
    out.set("p50_ms", quantile(latencies_ms, 0.5), "ms");
  } else {
    measure_samplers(options.seed, out);
    out.set("sim.campaign_ms", median(round_ms), "ms");
    out.set("sim.short_campaign_p95_ms", quantile(latencies_ms, 0.95), "ms");
    out.set("sim.kernel.fast_periods",
            static_cast<double>(kernel.fast_periods), "count");
    out.set("sim.kernel.exact_steps", static_cast<double>(kernel.exact_steps),
            "count");
    out.set("sim.kernel.fast_share",
            kernel_events > 0.0
                ? static_cast<double>(kernel.fast_periods) / kernel_events
                : 0.0,
            "ratio");
    out.set("sim.kernel.occupancy", kernel.occupancy(sim::kBatchLanes),
            "ratio");
    out.set("sim.ns_per_kernel_event",
            kernel_events > 0.0
                ? median(round_ms) * 1e6 * cases.size() / kernel_events
                : 0.0,
            "ns");
    double mt_trials = 0.0, mt_s = 0.0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      mt_trials += static_cast<double>(cases[i].short_trials);
      mt_s += median(mt_times[i]);
    }
    const double trials_per_s_mt = mt_trials / mt_s;
    out.set("sim.trials_per_s_mt", trials_per_s_mt, "1/s");
    out.set("sim.parallel_efficiency",
            trials_per_s_mt / (static_cast<double>(threads) * trials_per_s),
            "ratio");
    const double traced_rate = median(traced_round_rates);
    out.set("trace.overhead_share", trials_per_s / traced_rate - 1.0,
            "ratio");
  }
  out.notes.push_back(
      "campaign: " + std::to_string(latencies_ms.size()) +
      " short campaigns, " + std::to_string(round_rates.size()) +
      " long rounds, trials/s " + std::to_string(trials_per_s));
  return out;
}

}  // namespace perfbench
