#include "scenario/spec.h"

#include <cstdint>
#include <limits>
#include <string_view>

#include "common/string_util.h"
#include "gen/attack_strategy.h"
#include "obs/report.h"

namespace ricd::scenario {
namespace {

/// All rejection Statuses share the `validate.scenario: <tag>: detail`
/// shape (same convention as validate.snapshot) so tests and callers can
/// match on the tag without parsing prose.
Status Bad(const char* tag, const std::string& detail) {
  return Status::InvalidArgument(
      StringPrintf("validate.scenario: %s: %s", tag, detail.c_str()));
}

/// Deterministic double formatting: %g prints knob values the way humans
/// write them ("0.2", "1.6", "0"), and %g(parse("0.2")) == "0.2", which is
/// what makes the JSON round-trip byte-stable.
std::string FormatDouble(double value) { return StringPrintf("%g", value); }

Result<ArrivalPattern> ParseArrival(std::string_view value) {
  if (value == "uniform") return ArrivalPattern::kUniform;
  if (value == "flash_sale") return ArrivalPattern::kFlashSale;
  if (value == "burst") return ArrivalPattern::kBurst;
  if (value == "diurnal") return ArrivalPattern::kDiurnal;
  if (value == "attack_burst_mid_window") {
    return ArrivalPattern::kAttackBurstMidWindow;
  }
  return Bad("bad-arrival", std::string(value));
}

Result<uint64_t> ParseU64Member(const std::string& key,
                                const obs::JsonValue& value) {
  if (!value.is_number()) return Bad("bad-type", key + " must be a number");
  uint64_t parsed = 0;
  if (!ParseUint64(value.number_token, &parsed)) {
    return Bad("bad-value", key + " must be a non-negative integer, got '" +
                                value.number_token + "'");
  }
  return parsed;
}

Result<uint32_t> ParseU32Member(const std::string& key,
                                const obs::JsonValue& value) {
  RICD_ASSIGN_OR_RETURN(const uint64_t wide, ParseU64Member(key, value));
  if (wide > std::numeric_limits<uint32_t>::max()) {
    return Bad("bad-value", key + " out of range");
  }
  return static_cast<uint32_t>(wide);
}

Result<AttackSpec> ParseAttack(const obs::JsonValue& value) {
  if (!value.is_object()) return Bad("bad-type", "attacks[] must be objects");
  AttackSpec attack;
  for (const auto& [key, member] : value.members) {
    if (key == "family") {
      if (!member.is_string()) return Bad("bad-type", "family must be a string");
      attack.family = member.string_value;
    } else if (key == "groups") {
      RICD_ASSIGN_OR_RETURN(attack.groups, ParseU32Member(key, member));
    } else if (key == "group_size") {
      RICD_ASSIGN_OR_RETURN(attack.group_size, ParseU32Member(key, member));
    } else if (key == "targets_per_group") {
      RICD_ASSIGN_OR_RETURN(attack.targets_per_group,
                            ParseU32Member(key, member));
    } else if (key == "budget") {
      RICD_ASSIGN_OR_RETURN(attack.budget, ParseU32Member(key, member));
    } else if (key == "camouflage_rate") {
      if (!member.is_number()) {
        return Bad("bad-type", "camouflage_rate must be a number");
      }
      attack.camouflage_rate = member.number_value;
    } else if (key == "seed_salt") {
      RICD_ASSIGN_OR_RETURN(attack.seed_salt, ParseU64Member(key, member));
    } else {
      return Bad("unknown-field", "attacks." + key);
    }
  }
  if (auto family = gen::FindAttackFamily(attack.family); !family.ok()) {
    return Bad("bad-family", family.status().message());
  }
  if (attack.camouflage_rate < 0.0 || attack.camouflage_rate > 1.0) {
    return Bad("bad-value", "camouflage_rate must be in [0, 1]");
  }
  return attack;
}

}  // namespace

const char* ArrivalPatternName(ArrivalPattern pattern) {
  switch (pattern) {
    case ArrivalPattern::kUniform:
      return "uniform";
    case ArrivalPattern::kFlashSale:
      return "flash_sale";
    case ArrivalPattern::kBurst:
      return "burst";
    case ArrivalPattern::kDiurnal:
      return "diurnal";
    case ArrivalPattern::kAttackBurstMidWindow:
      return "attack_burst_mid_window";
  }
  return "unknown";
}

std::string ScenarioSpecToJson(const ScenarioSpec& spec) {
  std::string out = "{\"name\":\"" + obs::JsonEscape(spec.name) + "\"";
  out += StringPrintf(",\"scale\":\"%s\"", gen::ScenarioScaleName(spec.scale));
  out += ",\"skew\":" + FormatDouble(spec.skew);
  out += StringPrintf(",\"arrival\":\"%s\"", ArrivalPatternName(spec.arrival));
  out += StringPrintf(",\"seed\":%llu",
                      static_cast<unsigned long long>(spec.seed));
  out += ",\"attacks\":[";
  for (size_t i = 0; i < spec.attacks.size(); ++i) {
    const AttackSpec& attack = spec.attacks[i];
    if (i > 0) out += ",";
    out += "{\"family\":\"" + obs::JsonEscape(attack.family) + "\"";
    out += StringPrintf(
        ",\"groups\":%u,\"group_size\":%u,\"targets_per_group\":%u,"
        "\"budget\":%u",
        attack.groups, attack.group_size, attack.targets_per_group,
        attack.budget);
    out += ",\"camouflage_rate\":" + FormatDouble(attack.camouflage_rate);
    out += StringPrintf(",\"seed_salt\":%llu}",
                        static_cast<unsigned long long>(attack.seed_salt));
  }
  out += "]}";
  return out;
}

Result<ScenarioSpec> ParseScenarioSpec(const std::string& json) {
  auto parsed = obs::JsonValue::Parse(json);
  if (!parsed.ok()) return Bad("bad-json", parsed.status().message());
  const obs::JsonValue& root = *parsed;
  if (!root.is_object()) return Bad("not-object", "spec root must be an object");

  ScenarioSpec spec;
  for (const auto& [key, member] : root.members) {
    if (key == "name") {
      if (!member.is_string()) return Bad("bad-type", "name must be a string");
      spec.name = member.string_value;
    } else if (key == "scale") {
      if (!member.is_string()) return Bad("bad-type", "scale must be a string");
      if (!gen::ParseScenarioScale(member.string_value, &spec.scale)) {
        return Bad("bad-scale", member.string_value);
      }
    } else if (key == "skew") {
      if (!member.is_number()) return Bad("bad-type", "skew must be a number");
      spec.skew = member.number_value;
    } else if (key == "arrival") {
      if (!member.is_string()) {
        return Bad("bad-type", "arrival must be a string");
      }
      RICD_ASSIGN_OR_RETURN(spec.arrival, ParseArrival(member.string_value));
    } else if (key == "seed") {
      RICD_ASSIGN_OR_RETURN(spec.seed, ParseU64Member(key, member));
    } else if (key == "attacks") {
      if (!member.is_array()) return Bad("bad-type", "attacks must be an array");
      for (const obs::JsonValue& item : member.items) {
        RICD_ASSIGN_OR_RETURN(AttackSpec attack, ParseAttack(item));
        spec.attacks.push_back(std::move(attack));
      }
    } else {
      return Bad("unknown-field", key);
    }
  }
  if (spec.name.empty()) {
    return Bad("missing-name", "scenario name is required");
  }
  if (spec.skew < 0.0) {
    return Bad("bad-value", "skew must be >= 0");
  }
  return spec;
}

}  // namespace ricd::scenario
