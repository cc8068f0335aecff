// The Monte-Carlo scenario keys, declared once. Each key -- name, group,
// default, help text and the field it sets -- is one row of the table
// behind scenario_keys(); the simulate/sweep/optimize flags, the platform
// flags of plan/hierarchy/spares and serve's EVAL lines (platform and run
// groups) all read it from there. A setter applies one typed rule; range
// checks stay in Parameters, SimConfig and DcpSpec::validate:
//   text      as given, or one of the key's accepted spellings
//   real      a full-token finite double
//   count     an integer token in [0, 2^53]
//   sentinel  a real where 0 keeps the default (closed-form period,
//             exponential arrivals) and anything else must be positive
// The per-axis model rows that simulate, sweep and optimize print live
// here too.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "model/period.hpp"
#include "sim/protocol_sim.hpp"
#include "util/cli.hpp"
#include "util/distributions.hpp"

namespace dckpt::sim {

enum class KeyGroup { kPlatform, kRun, kSdc, kPredictor, kDcp };

/// A value that breaks its key's rule; what() is "invalid value 'x'".
class ScenarioValueError : public std::invalid_argument {
 public:
  explicit ScenarioValueError(const std::string& text)
      : std::invalid_argument("invalid value '" + text + "'") {}
};

double parse_real(const std::string& text);          ///< the real rule
std::uint64_t parse_count(const std::string& text);  ///< the count rule
/// %.6g: the serve cache key's spelling of a real.
std::string quantized(double value);

/// Nodes above this are capped for per-node simulation bookkeeping.
inline constexpr std::uint64_t kMaxSimNodes = 100000;

/// What the keys set; default-constructed, every key holds its default.
struct ScenarioValues : ScenarioAxes {
  std::string scenario;  ///< base | exa hardware constants
  double mtbf = 0.0;
  double phi_ratio = 0.0;
  std::uint64_t nodes = 0;  ///< 0 = the hardware's node count
  std::string protocol;
  double tbase = 0.0;
  double period = 0.0;  ///< 0 = closed-form optimum
  std::uint64_t seed = 0;
  double weibull_shape = 0.0;  ///< 0 = exponential arrivals

  ScenarioValues();
  model::Parameters platform() const;  ///< validated
  /// The Monte-Carlo config on platform(), with more than kMaxSimNodes
  /// nodes capped; fatal failures do not stop a run.
  SimConfig sim_config() const;
};

/// The field a key sets: a member of ScenarioValues or of its dcp spec.
using ScenarioField =
    std::variant<std::string ScenarioValues::*, double ScenarioValues::*,
                 std::uint64_t ScenarioValues::*, double model::DcpSpec::*,
                 std::uint64_t model::DcpSpec::*>;

struct ScenarioKey {
  const char* name;
  KeyGroup group;
  const char* default_value;
  const char* help;
  ScenarioField field;
  bool sentinel = false;  ///< a real field under the sentinel rule
  /// Text keys: the one spelling of a valid value (nullopt: invalid), so
  /// `protocol=Triple` and `protocol=triple` are one serve cache entry.
  std::optional<std::string> (*spelling)(const std::string&) = nullptr;

  /// Applies the key's rule; throws ScenarioValueError.
  void set(ScenarioValues& values, const std::string& text) const;
  /// The serve cache key's spelling: spelling() of a text, quantized()
  /// real, decimal count.
  std::string canonical(const ScenarioValues& values) const;
};

const std::vector<ScenarioKey>& scenario_keys();  ///< in table order
const ScenarioKey* find_scenario_key(std::string_view name);

/// Registers the keys of `groups` on `cli`, bar the names in `except`.
void add_scenario_options(util::CliParser& cli,
                          std::initializer_list<KeyGroup> groups,
                          std::initializer_list<std::string_view> except = {});
/// Reads every key `cli` declares; a value that breaks its rule prints
/// `option --name: invalid value` and exits 2.
ScenarioValues scenario_from(const util::CliParser& cli);

/// Per-node Weibull arrivals matched to the node MTBF; unset at shape 0.
std::optional<util::Weibull> weibull_arrivals(double shape,
                                              const model::Parameters& params);

/// The axes a model row exists for, in display order.
enum Axis : std::size_t {
  kWeibullAxis, kSdcAxis, kPredictorAxis, kDcpAxis, kAxisCount
};
std::array<bool, kAxisCount> axes_on(const ScenarioAxes& axes,
                                     double weibull_shape);
/// "weibull k=0.70", "verified ckpt", "predictor" or "dcp".
std::string axis_label(std::size_t axis, double weibull_shape);

struct ModelWaste {
  double base = 0.0;
  std::array<double, kAxisCount> axis{};  ///< == base where the axis is off
};
/// Model waste at config.period. Weibull takes the clustered-failure
/// model at the expected-makespan horizon: its startup-transient term
/// depends on how long the mission runs, not on the fault-free work.
ModelWaste model_waste(const SimConfig& config, double weibull_shape);

struct ModelOptimum {
  model::OptimalPeriod base;  ///< closed form (Eq. 9/10/15)
  std::array<model::OptimalPeriod, kAxisCount> axis{};  ///< == base if off
};
/// Model optimum per axis (numeric); Weibull at the closed-form horizon.
ModelOptimum model_optimum(const SimConfig& config, double weibull_shape);

}  // namespace dckpt::sim
