// CS-A (§IV-A in-text numbers): attacker adaptation dynamics.
//
//   * fingerprint rotation ~5.3 h (mean) after each new blocking rule
//   * each fingerprint rule stays effective only for hours
//   * NiP-cap adaptation: the bot shifts to the cap and persists
//   * activity ceases 2 days before the flight's departure
//
// The scenario runs as a multi-seed fleet: the paper-comparison table uses
// the base seed (as before), the fleet table adds cross-seed spread, and the
// rule-effectiveness distribution is merged across seeds with
// RunningStats::merge. Shape assertions stay pinned to the base seed.
// FRAUDSIM_BENCH_SMOKE=1 drops to 2 seeds.
#include <cstdlib>
#include <iostream>
#include <optional>
#include <vector>

#include "core/bench/options.hpp"
#include "core/scenario/fleet.hpp"
#include "core/scenario/seat_spin_scenario.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace fraudsim;

namespace {

bool smoke() {
  return bench::Options::env_flag("FRAUDSIM_BENCH_SMOKE");
}

constexpr std::uint64_t kBaseSeed = 531;

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n_seeds = smoke() ? 2 : 3;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < n_seeds; ++i) seeds.push_back(kBaseSeed + i);

  std::optional<scenario::SeatSpinScenarioResult> base;
  const auto run_one = [&base](const scenario::FleetJob& job) {
    scenario::SeatSpinScenarioConfig config;
    config.seed = job.seed;
    config.legit.booking_sessions_per_hour = 15;
    config.legit.browse_sessions_per_hour = 5;
    config.legit.otp_logins_per_hour = 4;
    auto result = scenario::run_seat_spin_scenario(config);

    scenario::FleetRunResult out;
    out.observations["reaction_hours"] = result.mean_rotation_reaction_hours;
    out.observations["rotations"] = static_cast<double>(result.rotations);
    out.observations["rules_installed"] = static_cast<double>(result.actions.size());
    out.observations["stop_margin_days"] =
        result.bot_stopped_at < 0 ? -1.0
                                  : sim::to_days(result.departure - result.bot_stopped_at);
    out.observations["nip_after_cap"] = static_cast<double>(result.bot.current_nip);
    // Per-rule effectiveness windows, merged across seeds as a single
    // distribution (one RunningStats shard per run).
    for (const double hours : result.fp_rule_effectiveness_hours) {
      out.series["rule_effectiveness_hours"].add(hours);
    }
    if (job.seed == kBaseSeed) base = std::move(result);
    return out;
  };

  std::cout << "Running the adaptation-dynamics scenario x " << n_seeds
            << " seeds (3 simulated weeks each)...\n";
  scenario::FleetOptions fleet_options;
  fleet_options.threads = bench::Options::parse(argc, argv).fleet_threads;
  const scenario::FleetReport fleet_report =
      scenario::run_fleet(scenario::cross_jobs({"adaptation"}, seeds), run_one, fleet_options);
  if (!base) {
    std::cout << "CS-A SHAPE: FAILED (missing base-seed run)\n";
    return 1;
  }
  const auto& result = *base;

  util::RunningStats reactions;
  for (const auto& r : result.fp_rule_effectiveness_hours) reactions.add(r);

  util::AsciiTable table({"Metric", "Measured", "Paper"});
  table.add_row({"mean block->rotation reaction (h)",
                 util::format_double(result.mean_rotation_reaction_hours, 1), "5.3"});
  table.add_row({"fingerprint rotations observed", std::to_string(result.rotations), "many"});
  table.add_row({"fingerprint rules installed",
                 std::to_string(result.actions.size()), "several"});
  table.add_row({"mean rule effectiveness window (h)",
                 util::format_double(reactions.mean(), 1), "hours"});
  table.add_row({"p90 rule effectiveness window (h)",
                 util::format_double(
                     util::percentile(result.fp_rule_effectiveness_hours, 0.9), 1),
                 "< 1 day"});
  const double stop_margin_days =
      result.bot_stopped_at < 0 ? -1
                                : sim::to_days(result.departure - result.bot_stopped_at);
  table.add_row({"attack stop before departure (days)",
                 util::format_double(stop_margin_days, 1), "2"});
  table.add_row({"bot NiP after the cap", std::to_string(result.bot.current_nip), "cap (4)"});
  table.add_row({"NiP-cap rejections absorbed",
                 std::to_string(result.bot.nip_cap_rejections), ">0"});
  std::cout << "\n=== CS-A: attacker adaptation dynamics (seed " << kBaseSeed << ") ===\n"
            << table.render() << "\n";
  std::cout << fleet_report.render_table("CS-A: cross-seed spread") << "\n";

  std::cout << "Rule-installation timeline (first 12 enforcement actions):\n";
  std::size_t shown = 0;
  for (const auto& action : result.actions) {
    if (shown++ >= 12) break;
    std::cout << "  " << sim::format_time(action.time) << "  " << action.kind << "  "
              << action.detail << "\n";
  }

  bool ok = true;
  auto expect = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::cout << "SHAPE VIOLATION: " << what << "\n";
      ok = false;
    }
  };
  expect(result.rotations >= 3, "multiple rotations under enforcement");
  expect(result.mean_rotation_reaction_hours > 3.0 && result.mean_rotation_reaction_hours < 8.0,
         "mean rotation reaction near 5.3 h");
  // A popular configuration's rule can be re-hit much later by a legitimate
  // user sharing the config, so judge the bulk of the distribution.
  expect(reactions.count() == 0 ||
             util::percentile(result.fp_rule_effectiveness_hours, 0.9) < 24.0,
         "blocking rules are neutralised within hours (p90 < 1 day)");
  expect(stop_margin_days >= 1.9 && stop_margin_days <= 3.0,
         "attack ceases ~2 days before departure");
  expect(result.bot.current_nip == 4, "bot adapted to the cap");
  // Cross-seed: every seed's bot must land on the cap — the adaptation is a
  // mechanism, not a base-seed accident.
  const auto* agg = fleet_report.find("adaptation");
  expect(agg != nullptr && agg->observations.at("nip_after_cap").stats.min() == 4.0 &&
             agg->observations.at("nip_after_cap").stats.max() == 4.0,
         "every seed's bot adapted to the cap");
  std::cout << (ok ? "CS-A SHAPE: OK\n" : "CS-A SHAPE: FAILED\n");
  return ok ? 0 : 1;
}
