// The scenario-key table (sim/scenario.hpp): its shape, the typed setter
// rules, and a property test that drives serve EVAL lines built from the
// table's served keys with hostile values -- every reply must be a typed
// record, never `internal` and never a throw.
#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "proptest.hpp"
#include "sim/service.hpp"
#include "util/json.hpp"

namespace {

using namespace dckpt;
using sim::KeyGroup;

/// Values no typed rule may let through unchanged, and their neighbours.
const std::vector<std::string> kHostile = {
    "nan", "inf", "-inf", "-1", "1e308", "9007199254740993", "12.5",
    "5x", "0x", "", "-0", "1e999"};

bool rejects(const sim::ScenarioKey& key, const std::string& text) {
  sim::ScenarioValues values;
  try {
    key.set(values, text);
    return false;
  } catch (const sim::ScenarioValueError&) {
    return true;
  }
}

/// The value `key` set in `values` if its field holds a T, read through
/// the key's member pointer.
template <typename T>
std::optional<T> held(const sim::ScenarioKey& key,
                      const sim::ScenarioValues& values) {
  if (const auto* member = std::get_if<T sim::ScenarioValues::*>(&key.field)) {
    return values.**member;
  }
  if (const auto* member = std::get_if<T model::DcpSpec::*>(&key.field)) {
    return values.dcp.**member;
  }
  return std::nullopt;
}

const sim::ScenarioKey& key_named(const std::string& name) {
  const sim::ScenarioKey* key = sim::find_scenario_key(name);
  EXPECT_NE(key, nullptr) << name;
  return *key;
}

TEST(ScenarioTable, KeysAreUniqueAndGrouped) {
  std::set<std::string> names;
  std::map<KeyGroup, int> per_group;
  for (const auto& key : sim::scenario_keys()) {
    EXPECT_TRUE(names.insert(key.name).second) << key.name;
    ++per_group[key.group];
  }
  EXPECT_EQ(per_group[KeyGroup::kPlatform], 4);
  EXPECT_EQ(per_group[KeyGroup::kRun], 5);
  EXPECT_EQ(per_group[KeyGroup::kSdc], 4);
  EXPECT_EQ(per_group[KeyGroup::kPredictor], 4);
  EXPECT_EQ(per_group[KeyGroup::kDcp], 4);
  EXPECT_EQ(sim::find_scenario_key("mtfb"), nullptr);
}

TEST(ScenarioTable, DefaultsSpellThemselves) {
  // A default that its own rule rejected, or that the cache key spells
  // differently, would be a second, silent default.
  const sim::ScenarioValues values;
  for (const auto& key : sim::scenario_keys()) {
    EXPECT_FALSE(rejects(key, key.default_value)) << key.name;
    EXPECT_EQ(key.canonical(values), key.default_value) << key.name;
  }
}

TEST(ScenarioTable, AxisDefaultsMatchSimConfig) {
  const sim::ScenarioValues values;
  const sim::SimConfig config;
  EXPECT_EQ(values.sdc_rate, config.sdc_rate);
  EXPECT_EQ(values.verify_cost, config.verify_cost);
  EXPECT_EQ(values.verify_every, config.verify_every);
  EXPECT_EQ(values.keep_last, config.keep_last);
  EXPECT_EQ(values.pred_recall, config.pred_recall);
  EXPECT_EQ(values.pred_precision, config.pred_precision);
  EXPECT_EQ(values.pred_window, config.pred_window);
  EXPECT_EQ(values.proactive_cost, config.proactive_cost);
  EXPECT_EQ(values.dcp.dirty_fraction, config.dcp.dirty_fraction);
  EXPECT_EQ(values.dcp.block_size, config.dcp.block_size);
  EXPECT_EQ(values.dcp.stack_size, config.dcp.stack_size);
  EXPECT_EQ(values.dcp.hash_overhead, config.dcp.hash_overhead);
}

TEST(ScenarioTable, RealRuleWantsAFiniteFullToken) {
  const auto& mtbf = key_named("mtbf");
  for (const char* bad : {"nan", "inf", "-inf", "", "5x", "1e999", "abc"}) {
    EXPECT_TRUE(rejects(mtbf, bad)) << bad;
  }
  // Ranges are Parameters::validate's business, not the rule's.
  for (const char* ok : {"-1", "1e308", "12.5", "0"}) {
    EXPECT_FALSE(rejects(mtbf, ok)) << ok;
  }
}

TEST(ScenarioTable, SentinelRuleWantsZeroOrPositive) {
  for (const char* name : {"period", "weibull-shape"}) {
    const auto& key = key_named(name);
    for (const char* bad : {"-2", "-1e-300", "nan", "-inf", "inf"}) {
      EXPECT_TRUE(rejects(key, bad)) << name << "=" << bad;
    }
    for (const char* ok : {"0", "12.5", "1e308"}) {
      EXPECT_FALSE(rejects(key, ok)) << name << "=" << ok;
    }
  }
}

TEST(ScenarioTable, CountRuleWantsAnIntegerTokenUpTo2To53) {
  for (const char* name : {"nodes", "seed", "verify-every", "keep-last",
                           "dcp-block", "dcp-stack"}) {
    const auto& key = key_named(name);
    for (const char* bad : {"-5", "12.5", "1e3", "9007199254740993",
                            "99999999999999999999999", "", "5x", "nan",
                            "+5", " 5"}) {
      EXPECT_TRUE(rejects(key, bad)) << name << "=" << bad;
    }
    for (const char* ok : {"0", "12", "9007199254740992"}) {
      EXPECT_FALSE(rejects(key, ok)) << name << "=" << ok;
    }
  }
  EXPECT_EQ(sim::parse_count("9007199254740992"), 9007199254740992ULL);
}

TEST(ScenarioTable, TextKeysNameTheirSpellings) {
  EXPECT_TRUE(rejects(key_named("scenario"), "mars"));
  EXPECT_FALSE(rejects(key_named("scenario"), "exa"));
  EXPECT_TRUE(rejects(key_named("protocol"), "quadruple"));
  EXPECT_FALSE(rejects(key_named("protocol"), "DoubleNBL"));
}

TEST(ScenarioTable, HostileValuesLeaveTypedValuesOrATypedError) {
  // Every setter either stores a value its rule admits or throws
  // ScenarioValueError -- never another exception, never poison.
  for (const auto& key : sim::scenario_keys()) {
    for (const std::string& text : kHostile) {
      sim::ScenarioValues values;
      try {
        key.set(values, text);
      } catch (const sim::ScenarioValueError&) {
        continue;
      }
      if (const auto real = held<double>(key, values)) {
        EXPECT_TRUE(std::isfinite(*real)) << key.name << "=" << text;
        if (key.sentinel) {
          EXPECT_GE(*real, 0.0) << key.name << "=" << text;
        }
      } else if (const auto count = held<std::uint64_t>(key, values)) {
        EXPECT_LE(*count, 9007199254740992ULL) << key.name << "=" << text;
      }
    }
  }
}

TEST(ScenarioTable, WeibullArrivalsMatchTheNodeMtbf) {
  const auto params = sim::ScenarioValues().platform();
  EXPECT_FALSE(sim::weibull_arrivals(0.0, params).has_value());
  const auto weibull = sim::weibull_arrivals(0.7, params);
  ASSERT_TRUE(weibull.has_value());
  EXPECT_NEAR(weibull->mean(), params.node_mtbf(), 1e-6 * params.node_mtbf());
}

TEST(ScenarioTable, ModelRowsEqualTheBaseWhenAxesAreOff) {
  const auto config = sim::ScenarioValues().sim_config();
  const auto waste = sim::model_waste(config, 0.0);
  for (const double axis : waste.axis) EXPECT_EQ(axis, waste.base);
  auto with_sdc = config;
  with_sdc.sdc_rate = 1e-4;
  with_sdc.verify_cost = 10.0;
  with_sdc.verify_every = 2;
  const auto sdc = sim::model_waste(with_sdc, 0.0);
  EXPECT_GT(sdc.axis[sim::kSdcAxis], sdc.base);
  EXPECT_EQ(sdc.axis[sim::kDcpAxis], sdc.base);
}

// -------------------------------------------------- serve EVAL property

/// The keys an EVAL line may carry: the table's served groups plus
/// serve's own trials and mission-hours (kind is drawn separately).
std::vector<std::string> served_keys() {
  std::vector<std::string> keys = {"trials", "mission-hours"};
  for (const auto& key : sim::scenario_keys()) {
    if (key.group == KeyGroup::kPlatform || key.group == KeyGroup::kRun) {
      keys.emplace_back(key.name);
    }
  }
  return keys;
}

TEST(ScenarioTable, ServeTakesExactlyTheTwelveDocumentedKeys) {
  auto keys = served_keys();
  keys.emplace_back("kind");
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()),
            (std::set<std::string>{"kind", "protocol", "scenario", "mtbf",
                                   "phi-ratio", "nodes", "period", "tbase",
                                   "trials", "seed", "weibull-shape",
                                   "mission-hours"}));
}

TEST(ScenarioTable, HostileEvalLinesGetTypedReplies) {
  sim::EvalServiceOptions options;
  options.threads = 1;
  options.default_trials = 2;
  sim::EvalService service(options);
  const auto keys = served_keys();
  // Hostile values, a few sane ones so lines also reach the models, and
  // small platforms so kind=sim stays cheap.
  std::vector<std::string> values = kHostile;
  values.insert(values.end(), {"0", "1", "12", "900", "0.5", "exa"});
  const std::vector<std::string> kinds = {"waste", "period", "risk", "sim"};

  proptest::ForallConfig config;
  config.seed = 0x5ce7a;
  config.iterations = 600;
  proptest::forall<std::string>(
      config,
      [&](proptest::Gen& gen) {
        std::string line = "EVAL kind=" + gen.element(kinds);
        if (gen.boolean()) line += " nodes=12 tbase=2000";
        const std::uint64_t pairs = gen.integer(1, 3);
        for (std::uint64_t i = 0; i < pairs; ++i) {
          line += ' ' + gen.element(keys) + '=' + gen.element(values);
        }
        return line;
      },
      [&](const std::string& line) -> std::optional<std::string> {
        std::string reply;
        try {
          reply = service.handle_line(line);
        } catch (const std::exception& error) {
          return std::string("threw: ") + error.what();
        }
        util::JsonValue record;
        try {
          record = util::parse_json(reply);
        } catch (const std::exception&) {
          return "reply is not JSON: " + reply;
        }
        const std::string kind = record.at("record").as_string();
        if (kind == "eval") return std::nullopt;
        if (kind == "eval_error") {
          const std::string code = record.at("code").as_string();
          if (code == "parse" || code == "limit") return std::nullopt;
        }
        return "untyped reply: " + reply;
      },
      nullptr, [](const std::string& line) { return line; });
}

}  // namespace
