#include "sim/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "model/model_api.hpp"
#include "util/format.hpp"

namespace dckpt::sim {

namespace {

template <typename Values, typename T>
auto& at(Values& values, T ScenarioValues::*member) {
  return values.*member;
}

template <typename Values, typename T>
auto& at(Values& values, T model::DcpSpec::*member) {
  return values.dcp.*member;
}

// One typed rule per field type; see the header.
void assign(const ScenarioKey& key, std::string& target,
            const std::string& text) {
  if (key.spelling != nullptr && !key.spelling(text)) {
    throw ScenarioValueError(text);
  }
  target = text;
}

void assign(const ScenarioKey& key, double& target, const std::string& text) {
  const double value = parse_real(text);
  if (key.sentinel && value < 0.0) throw ScenarioValueError(text);
  target = value;
}

void assign(const ScenarioKey&, std::uint64_t& target,
            const std::string& text) {
  target = parse_count(text);
}

/// The serve cache key's spelling of each field type.
std::string spelled(const ScenarioKey& key, const std::string& text) {
  return key.spelling != nullptr ? key.spelling(text).value_or(text) : text;
}
std::string spelled(const ScenarioKey&, double value) {
  return quantized(value);
}
std::string spelled(const ScenarioKey&, std::uint64_t value) {
  return std::to_string(value);
}

std::optional<std::string> hardware_spelling(const std::string& text) {
  if (text == "base" || text == "exa") return text;
  return std::nullopt;
}

/// Protocol names are case-insensitive; the lower-case name is the one
/// spelling (it is also how the table writes the default).
std::optional<std::string> protocol_spelling(const std::string& text) {
  const auto protocol = model::protocol_from_name(text);
  if (!protocol) return std::nullopt;
  std::string name(model::protocol_name(*protocol));
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char ch) { return std::tolower(ch); });
  return name;
}

using V = ScenarioValues;
using G = KeyGroup;
using Dcp = model::DcpSpec;

}  // namespace

double parse_real(const std::string& text) {
  if (const auto value = util::parse_finite(text)) return *value;
  throw ScenarioValueError(text);
}

std::uint64_t parse_count(const std::string& text) {
  const auto value = util::parse_integer(text);
  if (!value || *value < 0 || *value > (std::int64_t{1} << 53)) {
    throw ScenarioValueError(text);
  }
  return static_cast<std::uint64_t>(*value);
}

std::string quantized(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

const std::vector<ScenarioKey>& scenario_keys() {
  static const std::vector<ScenarioKey> keys = {
      {"scenario", G::kPlatform, "base", "base | exa hardware constants",
       &V::scenario, false, hardware_spelling},
      {"mtbf", G::kPlatform, "25200", "platform MTBF, seconds", &V::mtbf},
      {"phi-ratio", G::kPlatform, "0.25", "overhead fraction phi/R in [0,1]",
       &V::phi_ratio},
      {"nodes", G::kPlatform, "0", "override node count (0 = scenario default)",
       &V::nodes},
      {"protocol", G::kRun, "triple", "protocol to simulate",
       &V::protocol, false, protocol_spelling},
      {"tbase", G::kRun, "100000", "application work, seconds", &V::tbase},
      {"period", G::kRun, "0", "checkpoint period (0 = model optimum)",
       &V::period, true},
      {"seed", G::kRun, "42", "master seed", &V::seed},
      {"weibull-shape", G::kRun, "0",
       "use per-node Weibull streams with this shape (0 = exp)",
       &V::weibull_shape, true},
      {"sdc-rate", G::kSdc, "0",
       "platform silent-error rate, strikes/s (0 = off)", &V::sdc_rate},
      {"verify-cost", G::kSdc, "0", "blocking verification time V, seconds",
       &V::verify_cost},
      {"verify-every", G::kSdc, "0",
       "periods between verifications k (0 = verification off)",
       &V::verify_every},
      {"keep-last", G::kSdc, "1", "retained committed checkpoint sets l",
       &V::keep_last},
      {"pred-recall", G::kPredictor, "0",
       "fault-predictor recall r in [0,1] (0 = predictor off)",
       &V::pred_recall},
      {"pred-precision", G::kPredictor, "1",
       "fault-predictor precision p in (0,1]", &V::pred_precision},
      {"pred-window", G::kPredictor, "0",
       "prediction-window width w, seconds (0 = just-in-time)",
       &V::pred_window},
      {"proactive-cost", G::kPredictor, "0",
       "proactive checkpoint cost C_p, seconds", &V::proactive_cost},
      {"dirty-fraction", G::kDcp, "1",
       "per-page dirty fraction per period d in [0,1]", &Dcp::dirty_fraction},
      {"dcp-block", G::kDcp, "4096", "differential block size B, bytes",
       &Dcp::block_size},
      {"dcp-stack", G::kDcp, "0",
       "commits per full exchange K (0 = every commit full)", &Dcp::stack_size},
      {"hash-overhead", G::kDcp, "0",
       "content-hash scan cost h, fraction of a full image",
       &Dcp::hash_overhead},
  };
  return keys;
}

const ScenarioKey* find_scenario_key(std::string_view name) {
  const auto& keys = scenario_keys();
  const auto it = std::find_if(keys.begin(), keys.end(),
                               [&](const auto& key) { return name == key.name; });
  return it == keys.end() ? nullptr : &*it;
}

void ScenarioKey::set(ScenarioValues& values, const std::string& text) const {
  std::visit([&](auto member) { assign(*this, at(values, member), text); },
             field);
}

std::string ScenarioKey::canonical(const ScenarioValues& values) const {
  return std::visit(
      [&](auto member) { return spelled(*this, at(values, member)); }, field);
}

ScenarioValues::ScenarioValues() {
  for (const auto& key : scenario_keys()) key.set(*this, key.default_value);
}

model::Parameters ScenarioValues::platform() const {
  const auto hardware =
      scenario == "exa" ? model::exa_scenario() : model::base_scenario();
  auto params = hardware.at_phi_ratio(phi_ratio).with_mtbf(mtbf);
  if (nodes > 0) params.nodes = nodes;
  params.validate();
  return params;
}

SimConfig ScenarioValues::sim_config() const {
  SimConfig config;
  static_cast<ScenarioAxes&>(config) = *this;
  config.protocol = model::parse_protocol_name(protocol);
  config.params = platform();
  if (config.params.nodes > kMaxSimNodes) {
    config.params.nodes = 99996;  // divisible by 2 and 3
  }
  config.t_base = tbase;
  config.stop_on_fatal = false;
  config.period =
      period > 0.0
          ? period
          : model::optimal_period_closed_form(config.protocol, config.params)
                .period;
  return config;
}

void add_scenario_options(util::CliParser& cli,
                          std::initializer_list<KeyGroup> groups,
                          std::initializer_list<std::string_view> except) {
  for (const auto& key : scenario_keys()) {
    if (std::find(groups.begin(), groups.end(), key.group) != groups.end() &&
        std::find(except.begin(), except.end(), key.name) == except.end()) {
      cli.add_option(key.name, key.default_value, key.help);
    }
  }
}

ScenarioValues scenario_from(const util::CliParser& cli) {
  ScenarioValues values;
  for (const auto& key : scenario_keys()) {
    if (!cli.has_option(key.name)) continue;
    try {
      key.set(values, cli.get(key.name));
    } catch (const ScenarioValueError&) {
      cli.exit_invalid_value(key.name);
    }
  }
  return values;
}

std::optional<util::Weibull> weibull_arrivals(double shape,
                                              const model::Parameters& params) {
  if (!(shape > 0.0)) return std::nullopt;
  return util::Weibull::from_mean(shape, params.node_mtbf());
}

std::array<bool, kAxisCount> axes_on(const ScenarioAxes& axes,
                                     double weibull_shape) {
  return {weibull_shape > 0.0, axes.verifies(), axes.predicts(),
          axes.dcp.enabled()};
}

std::string axis_label(std::size_t axis, double weibull_shape) {
  static constexpr std::array<const char*, kAxisCount> kLabels = {
      "weibull k=", "verified ckpt", "predictor", "dcp"};
  return axis == kWeibullAxis ? kLabels[axis] +
                                    util::format_fixed(weibull_shape, 2)
                              : kLabels[axis];
}

ModelWaste model_waste(const SimConfig& c, double weibull_shape) {
  const auto on = axes_on(c, weibull_shape);
  ModelWaste w;
  w.base = model::waste(c.protocol, c.params, c.period);
  const auto horizon = [&] {
    return model::WeibullFailures{
        weibull_shape,
        model::expected_makespan(c.protocol, c.params, c.period, c.t_base)};
  };
  w.axis = {
      on[kWeibullAxis]
          ? model::waste(c.protocol, c.params, c.period, horizon())
          : w.base,
      on[kSdcAxis] ? model::waste_with_sdc(c.protocol, c.params, c.period,
                                           c.sdc_spec())
                   : w.base,
      on[kPredictorAxis] ? model::waste_with_predictor(
                               c.protocol, c.params, c.period,
                               c.predictor_spec())
                         : w.base,
      on[kDcpAxis]
          ? model::waste_with_dcp(c.protocol, c.params, c.period, c.dcp)
          : w.base};
  return w;
}

ModelOptimum model_optimum(const SimConfig& c, double weibull_shape) {
  const auto on = axes_on(c, weibull_shape);
  ModelOptimum opt;
  opt.base = model::optimal_period_closed_form(c.protocol, c.params);
  const auto horizon = [&] {
    return model::WeibullFailures{
        weibull_shape, model::expected_makespan(c.protocol, c.params,
                                                opt.base.period, c.t_base)};
  };
  opt.axis = {
      on[kWeibullAxis]
          ? model::optimal_period_numeric(c.protocol, c.params, horizon())
          : opt.base,
      on[kSdcAxis] ? model::optimal_period_with_sdc(c.protocol, c.params,
                                                    c.sdc_spec())
                   : opt.base,
      on[kPredictorAxis] ? model::optimal_period_with_predictor(
                               c.protocol, c.params, c.predictor_spec())
                         : opt.base,
      on[kDcpAxis]
          ? model::optimal_period_with_dcp(c.protocol, c.params, c.dcp)
          : opt.base};
  return opt;
}

}  // namespace dckpt::sim
