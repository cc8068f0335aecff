#include "sim/sweep.hpp"

#include <chrono>

#include "model/period.hpp"
#include "model/waste.hpp"
#include "sim/scenario.hpp"
#include "util/thread_pool.hpp"

namespace dckpt::sim {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::vector<SweepPoint> run_sweep(const SweepSpec& spec) {
  util::ThreadPool pool(spec.threads);
  std::vector<SweepPoint> rows;
  SweepProgress progress;
  progress.points_total =
      spec.protocols.size() * spec.mtbfs.size() * spec.phi_ratios.size();
  const auto sweep_start = Clock::now();

  const auto report = [&](const SweepPoint* point, double point_elapsed) {
    if (!spec.progress) return;
    progress.elapsed = seconds_since(sweep_start);
    progress.point_elapsed = point_elapsed;
    progress.trials_per_sec =
        progress.elapsed > 0.0
            ? static_cast<double>(progress.trials_done) / progress.elapsed
            : 0.0;
    progress.point = point;
    spec.progress(progress);
  };

  for (auto protocol : spec.protocols) {
    for (double mtbf : spec.mtbfs) {
      for (double ratio : spec.phi_ratios) {
        const auto point_start = Clock::now();
        auto params = spec.base.with_mtbf(mtbf).with_overhead(
            ratio * spec.base.remote_blocking);
        SweepPoint point;
        point.protocol = protocol;
        point.mtbf = mtbf;
        point.phi = params.overhead;
        if (spec.period) {
          point.period = spec.period(protocol, params);
        } else {
          const auto opt = model::optimal_period_closed_form(protocol, params);
          if (!opt.feasible) {
            ++progress.points_skipped;
            report(nullptr, seconds_since(point_start));
            continue;
          }
          point.period = opt.period;
        }
        if (model::waste(protocol, params, point.period) >= 1.0) {
          ++progress.points_skipped;
          report(nullptr, seconds_since(point_start));
          continue;
        }
        SimConfig config;
        static_cast<ScenarioAxes&>(config) = spec;
        config.protocol = protocol;
        config.params = params;
        config.period = point.period;
        config.t_base = spec.t_base_in_mtbfs * mtbf;
        config.stop_on_fatal = false;
        const auto waste = model_waste(config, spec.weibull_shape);
        point.model_waste = waste.base;
        point.weibull_shape = spec.weibull_shape;
        point.model_waste_weibull = waste.axis[kWeibullAxis];
        point.model_waste_sdc = waste.axis[kSdcAxis];
        point.model_waste_pred = waste.axis[kPredictorAxis];
        point.model_waste_dcp = waste.axis[kDcpAxis];

        MonteCarloOptions options;
        options.trials = spec.trials;
        options.seed = spec.seed;
        options.metrics = spec.metrics;
        options.weibull = weibull_arrivals(spec.weibull_shape, params);
        point.result = run_monte_carlo(config, options, pool);
        rows.push_back(std::move(point));
        ++progress.points_done;
        progress.trials_done += spec.trials;
        report(&rows.back(), seconds_since(point_start));
      }
    }
  }
  return rows;
}

}  // namespace dckpt::sim
