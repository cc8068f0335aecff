#include "sim/service.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "model/model_api.hpp"
#include "sim/batch_kernel.hpp"
#include "sim/engine_geometry.hpp"
#include "sim/scenario.hpp"

namespace dckpt::sim {

namespace {

/// Latency histogram layout: log10(microseconds + 1) over [0, 7) -- from
/// sub-microsecond cache hits to multi-second Monte-Carlo campaigns at
/// 0.05-decade resolution. Documented in docs/SERVE.md; keep in sync.
constexpr double kLatencyLogLo = 0.0;
constexpr double kLatencyLogHi = 7.0;
constexpr std::size_t kLatencyBins = 140;

/// Most simulated events (periods plus failures) one kind=sim request may
/// cost: trials x makespan x (1/P + 1/M), the makespan being the model's
/// expectation bounded by the engine's livelock cap (a trial that stalls
/// stops there and counts as diverged). A huge tbase, or a period at which
/// a trial runs to a huge cap, answers code=limit instead of occupying the
/// service for hours.
constexpr double kMaxSimEvents = 1e9;

/// One EVAL line: serve's own keys beside the table's platform and run
/// groups (docs/SERVE.md lists all twelve).
struct EvalRequest {
  std::string kind;
  ScenarioValues scenario;
  std::uint64_t trials = 0;  ///< 0 = service default
  double mission_hours = 24.0;
};

bool served(KeyGroup group) {
  return group == KeyGroup::kPlatform || group == KeyGroup::kRun;
}

EvalRequest parse_request(const std::string& line) {
  EvalRequest req;
  std::istringstream in(line);
  std::string token;
  in >> token;  // consume "EVAL"
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    try {
      if (key == "kind") {
        req.kind = value;
      } else if (key == "trials") {
        req.trials = parse_count(value);
      } else if (key == "mission-hours") {
        req.mission_hours = parse_real(value);
      } else if (const ScenarioKey* scenario_key = find_scenario_key(key);
                 scenario_key != nullptr && served(scenario_key->group)) {
        scenario_key->set(req.scenario, value);
      } else {
        throw std::invalid_argument("unknown key '" + key + "'");
      }
    } catch (const ScenarioValueError& error) {
      throw EvalError("parse", "'" + key + "': " + error.what());
    }
  }
  if (req.kind.empty()) {
    throw std::invalid_argument("missing kind= (waste|period|risk|sim)");
  }
  return req;
}

/// Canonical cache key: the kind, then every served scenario key in table
/// order, then serve's own keys -- reals quantized, so period=0 keys the
/// "optimal period" variant.
std::string cache_key(const EvalRequest& req) {
  std::string key = req.kind;
  for (const auto& scenario_key : scenario_keys()) {
    if (served(scenario_key.group)) {
      key += '|' + scenario_key.canonical(req.scenario);
    }
  }
  return key + '|' + std::to_string(req.trials) + '|' +
         quantized(req.mission_hours);
}

double resolve_period(model::Protocol protocol,
                      const model::Parameters& params, double requested) {
  if (requested > 0.0) return requested;
  const auto opt = model::optimal_period_closed_form(protocol, params);
  if (!opt.feasible) {
    throw std::invalid_argument(
        "platform stalls at the closed-form optimum; pass period= explicitly");
  }
  return opt.period;
}

}  // namespace

util::JsonValue eval_error_json(const std::string& code,
                                const std::string& message) {
  auto v = util::JsonValue::object();
  v.set("record", "eval_error");
  v.set("code", code);
  v.set("error", message);
  return v;
}

util::JsonValue ServerCounters::to_json() const {
  auto v = util::JsonValue::object();
  v.set("accepted", accepted);
  v.set("shed", shed);
  v.set("read_timeouts", read_timeouts);
  v.set("write_timeouts", write_timeouts);
  v.set("overlong_lines", overlong_lines);
  v.set("disconnects", disconnects);
  v.set("peak_connections", peak_connections);
  v.set("drained", drained);
  return v;
}

void EvalServiceOptions::validate() const {
  if (cache_capacity == 0) {
    throw std::invalid_argument("EvalServiceOptions: zero cache_capacity");
  }
  if (default_trials == 0 || max_trials < default_trials) {
    throw std::invalid_argument(
        "EvalServiceOptions: need 0 < default_trials <= max_trials");
  }
}

EvalService::EvalService(EvalServiceOptions options)
    : options_(options),
      pool_(options.threads),
      cache_((options.validate(), options.cache_capacity)),
      latency_log_us_(kLatencyLogLo, kLatencyLogHi, kLatencyBins),
      started_(std::chrono::steady_clock::now()) {}

std::string EvalService::handle_line(const std::string& line) {
  const auto start = std::chrono::steady_clock::now();
  ++requests_;
  std::istringstream in(line);
  std::string command;
  in >> command;
  std::string response;
  if (command == "EVAL") {
    ++evals_;
    try {
      response = handle_eval(line).dump();
    } catch (const EvalError& error) {
      ++errors_;
      response = eval_error_json(error.code(), error.what()).dump();
    } catch (const std::invalid_argument& error) {
      // Argument validation below the service (model parameter checks,
      // protocol-name parsing) is still the client's fault.
      ++errors_;
      response = eval_error_json("parse", error.what()).dump();
    } catch (const std::exception& error) {
      ++errors_;
      response = eval_error_json("internal", error.what()).dump();
    }
  } else if (command == "STATS") {
    response = stats_json().dump();
  } else if (command == "QUIT") {
    auto v = util::JsonValue::object();
    v.set("record", "bye");
    response = v.dump();
  } else {
    ++errors_;
    response = eval_error_json("parse", "unknown command '" + command +
                                            "' (expected EVAL, STATS or QUIT)")
                   .dump();
  }
  record_latency(start);
  return response;
}

EvalService::RequestClass EvalService::classify_line(
    const std::string& line) const {
  std::istringstream in(line);
  std::string command;
  in >> command;
  if (command != "EVAL") return RequestClass::kLight;
  try {
    const EvalRequest req = parse_request(line);
    if (req.kind != "sim") return RequestClass::kLight;
    // A cached sim replays in microseconds: admit it inline rather than
    // burning a queue slot (and possibly a busy rejection) on it.
    return cache_.contains(cache_key(req)) ? RequestClass::kLight
                                           : RequestClass::kHeavy;
  } catch (const std::exception&) {
    return RequestClass::kLight;  // the error record is cheap to produce
  }
}

util::JsonValue EvalService::handle_eval(const std::string& line) {
  const EvalRequest req = parse_request(line);
  const std::string key = cache_key(req);
  if (util::JsonValue* hit = cache_.get(key)) {
    util::JsonValue response = *hit;
    response.set("cached", true);
    return response;
  }

  const ScenarioValues& scenario = req.scenario;
  const auto protocol = model::parse_protocol_name(scenario.protocol);
  const auto params = scenario.platform();
  auto v = util::JsonValue::object();
  v.set("record", "eval");
  v.set("kind", req.kind);
  v.set("protocol", model::protocol_name(protocol));

  if (req.kind == "waste") {
    const double period = resolve_period(protocol, params, scenario.period);
    v.set("period", period);
    v.set("waste", model::waste(protocol, params, period));
    v.set("min_period", model::min_period(protocol, params));
  } else if (req.kind == "period") {
    const auto opt = model::optimal_period_closed_form(protocol, params);
    v.set("period", opt.period);
    v.set("waste", opt.waste);
    v.set("feasible", opt.feasible);
  } else if (req.kind == "risk") {
    const double mission = req.mission_hours * 3600.0;
    v.set("risk_window", model::risk_window(protocol, params));
    v.set("success_probability",
          model::success_probability(protocol, params, mission));
    v.set("mission_hours", req.mission_hours);
  } else if (req.kind == "sim") {
    if (params.nodes > kMaxSimNodes) {
      throw EvalError("limit", "nodes too large for kind=sim (keep <= 100000)");
    }
    SimConfig config = scenario.sim_config();
    config.period = resolve_period(protocol, params, scenario.period);

    MonteCarloOptions mc_options;
    const std::uint64_t trials =
        req.trials > 0 ? req.trials : options_.default_trials;
    if (trials > options_.max_trials) {
      throw EvalError("limit", "trials exceeds the service limit");
    }
    config.validate();
    const double makespan = std::min(
        model::expected_makespan(protocol, params, config.period,
                                 config.t_base),
        engine::makespan_cap(config.max_makespan, config.t_base,
                             config.period));
    const double events = static_cast<double>(trials) * makespan *
                          (1.0 / config.period + 1.0 / params.mtbf);
    if (!(events <= kMaxSimEvents)) {
      throw EvalError("limit", "simulated work exceeds the service limit "
                               "(lower tbase or trials)");
    }
    mc_options.trials = trials;
    mc_options.seed = scenario.seed;
    mc_options.threads = options_.threads;
    mc_options.engine = options_.engine;
    mc_options.weibull = weibull_arrivals(scenario.weibull_shape, params);
    const auto mc = run_monte_carlo(config, mc_options, pool_);
    kernel_.merge(mc.kernel);
    sim_trials_ += trials;
    v.set("period", config.period);
    v.set("trials", trials);
    v.set("waste_mean", mc.waste.mean());
    v.set("waste_halfwidth", mc.waste.confidence_halfwidth());
    v.set("makespan_mean", mc.makespan.mean());
    v.set("failures_mean", mc.failures.mean());
    v.set("survival", mc.success.estimate());
    v.set("diverged", mc.diverged);
  } else {
    throw std::invalid_argument("unknown kind '" + req.kind +
                                "' (waste|period|risk|sim)");
  }

  cache_.put(key, v);
  v.set("cached", false);
  return v;
}

void EvalService::record_latency(
    std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double us =
      std::chrono::duration<double, std::micro>(elapsed).count();
  latency_log_us_.add(std::log10(us + 1.0));
}

util::JsonValue EvalService::stats_json() const {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  auto v = util::JsonValue::object();
  v.set("record", "serve_stats");
  v.set("uptime_s", uptime);
  v.set("requests", requests_);
  v.set("evals", evals_);
  v.set("errors", errors_);
  v.set("qps", uptime > 0.0 ? static_cast<double>(requests_) / uptime : 0.0);

  auto cache = util::JsonValue::object();
  cache.set("hits", cache_.hits());
  cache.set("misses", cache_.misses());
  cache.set("evictions", cache_.evictions());
  cache.set("hit_rate", cache_.hit_rate());
  cache.set("size", static_cast<std::uint64_t>(cache_.size()));
  cache.set("capacity", static_cast<std::uint64_t>(cache_.capacity()));
  v.set("cache", std::move(cache));

  auto kernel = util::JsonValue::object();
  kernel.set("waves", kernel_.waves);
  kernel.set("lanes", kernel_.lanes);
  kernel.set("fast_periods", kernel_.fast_periods);
  kernel.set("exact_steps", kernel_.exact_steps);
  kernel.set("occupancy", kernel_.occupancy(kBatchLanes));
  v.set("kernel", std::move(kernel));

  auto latency = util::JsonValue::object();
  const std::uint64_t in_range = latency_log_us_.total_count() -
                                 latency_log_us_.underflow() -
                                 latency_log_us_.overflow() -
                                 latency_log_us_.nonfinite();
  latency.set("count", latency_log_us_.total_count());
  if (in_range > 0) {
    // Stored as log10(us + 1); undo the transform for the exported values.
    latency.set("p50_us",
                std::pow(10.0, latency_log_us_.quantile(0.5)) - 1.0);
    latency.set("p99_us",
                std::pow(10.0, latency_log_us_.quantile(0.99)) - 1.0);
  }
  v.set("latency", std::move(latency));
  v.set("sim_trials", sim_trials_);

  static const ServerCounters kNoTransport{};
  v.set("server", (transport_ ? *transport_ : kNoTransport).to_json());
  return v;
}

}  // namespace dckpt::sim
