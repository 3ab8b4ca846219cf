#ifndef RICD_EVAL_REDTEAM_H_
#define RICD_EVAL_REDTEAM_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/result.h"
#include "eval/metrics.h"
#include "ricd/params.h"
#include "scenario/spec.h"

namespace ricd::eval {

/// One point on a robustness curve: detector quality against one attack
/// family at one knob setting.
struct RedteamPoint {
  std::string family;    // attack family ("derived_ric", ...)
  std::string knob;      // swept knob ("budget", "group_size", "camouflage_rate")
  double knob_value = 0.0;
  std::string setting;   // gauge-name-safe setting tag ("budget12", "camo30")
  std::string detector;  // "ricd", "fraudar", "copycatch"
  Metrics metrics;
  double elapsed_seconds = 0.0;
};

/// Sweep configuration. The base scenario supplies scale/skew/seed; its
/// attack mix is replaced per sweep point with a single campaign of the
/// swept family at the swept knob value (all other knobs at AttackSpec
/// defaults).
struct RedteamOptions {
  scenario::ScenarioSpec base;
  core::RicdParams params;
  /// Families to sweep; empty = every registered family.
  std::vector<std::string> families;
  /// Per-point progress lines (nullptr = silent).
  std::ostream* log = nullptr;
};

/// The pinned attacker-knob grid every red-team run sweeps: three settings
/// per knob, three knobs. Exposed so tools can print it.
struct RedteamKnobSetting {
  const char* knob;
  const char* tag;  // metric-name-safe ("budget12", "group8", "camo30")
  double value;
};
const std::vector<RedteamKnobSetting>& RedteamSweepGrid();

/// Runs the full sweep: |families| x |grid| scenarios, each scored by RICD
/// plus the screened FRAUDAR and CopyCatch baselines. Points are ordered
/// family-major, then grid order, then detector.
Result<std::vector<RedteamPoint>> RunRedteam(const RedteamOptions& options);

/// Records every point into the global metrics registry as gauges
///
///   bench.adversarial.<family>.<setting>.<detector>.{precision,recall,f1}
///
/// which the RICD_BENCH_JSON sink then lands in the committed
/// BENCH_adversarial.json record; tier-1 compares every point exactly
/// with a fresh sweep.
void EmitRedteamGauges(const std::vector<RedteamPoint>& points);

/// Fixed-width robustness-curve table, grouped by family and knob.
void PrintRedteamTable(std::ostream& os, const std::vector<RedteamPoint>& points);

}  // namespace ricd::eval

#endif  // RICD_EVAL_REDTEAM_H_
