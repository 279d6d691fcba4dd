// MIT (§V): mitigation ablation for Denial of Inventory.
//
// Each posture runs the same Airline A attack; we measure attack pressure
// (target depletion, abuser-held seats), legitimate friction (blocks, lost
// sales), and the honeypot's absorption when enabled. Ablated dimensions
// match DESIGN.md: NiP cap level, fingerprint blocking, CAPTCHA layering,
// honeypot redirection.
//
// Postures run as a (posture × seed) fleet on the parallel runner: the table
// reports cross-seed means ± stddev, while the shape assertions stay pinned
// to the base seed's run so they gate the exact trajectory they always did.
// FRAUDSIM_BENCH_SMOKE=1 drops to 2 seeds per posture.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <vector>

#include "core/bench/options.hpp"
#include "core/scenario/fleet.hpp"
#include "core/scenario/seat_spin_scenario.hpp"
#include "util/table.hpp"

using namespace fraudsim;

namespace {

struct Posture {
  const char* name;
  bool impose_cap;
  int cap_value;
  bool fp_blocking;
  mitigate::ChallengeMode challenge;
  bool honeypot;
};

scenario::SeatSpinScenarioResult run(const Posture& posture, std::uint64_t seed) {
  scenario::SeatSpinScenarioConfig config;
  config.seed = seed;
  config.legit.booking_sessions_per_hour = 15;
  config.legit.browse_sessions_per_hour = 5;
  config.legit.otp_logins_per_hour = 4;
  config.impose_cap = posture.impose_cap;
  config.cap_value = posture.cap_value;
  config.controller_blocking = posture.fp_blocking;
  config.challenge = posture.challenge;
  config.honeypot = posture.honeypot;
  return scenario::run_seat_spin_scenario(config);
}

bool smoke() {
  return bench::Options::env_flag("FRAUDSIM_BENCH_SMOKE");
}

constexpr std::uint64_t kBaseSeed = 4242;

}  // namespace

int main(int argc, char** argv) {
  const Posture postures[] = {
      {"no defenses", false, 0, false, mitigate::ChallengeMode::Off, false},
      {"NiP cap 4 only", true, 4, false, mitigate::ChallengeMode::Off, false},
      {"NiP cap 2 only", true, 2, false, mitigate::ChallengeMode::Off, false},
      {"fp blocking only", false, 0, true, mitigate::ChallengeMode::Off, false},
      {"cap 4 + fp blocking", true, 4, true, mitigate::ChallengeMode::Off, false},
      {"cap 4 + fp block + CAPTCHA", true, 4, true, mitigate::ChallengeMode::SuspiciousOnly,
       false},
      {"cap 4 + honeypot", true, 4, true, mitigate::ChallengeMode::Off, true},
  };
  const std::size_t n_seeds = smoke() ? 2 : 3;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < n_seeds; ++i) seeds.push_back(kBaseSeed + i);

  std::vector<std::string> variant_names;
  for (const auto& posture : postures) variant_names.push_back(posture.name);
  // Base-seed results for the shape gates, captured by the workers: each slot
  // is written by exactly one job (the posture's kBaseSeed run).
  std::vector<std::optional<scenario::SeatSpinScenarioResult>> base(std::size(postures));

  const auto run_one = [&](const scenario::FleetJob& job) {
    std::size_t posture_idx = 0;
    while (variant_names[posture_idx] != job.variant) ++posture_idx;
    auto result = run(postures[posture_idx], job.seed);

    scenario::FleetRunResult out;
    out.observations["depletion_days"] = result.target_depletion_days;
    out.observations["bot_holds"] = static_cast<double>(result.bot.holds_succeeded);
    out.observations["bot_blocked"] = static_cast<double>(result.bot.counters.blocked);
    out.observations["decoy_absorption"] = result.honeypot.absorption_rate();
    out.observations["legit_blocked"] = static_cast<double>(result.legit.blocked);
    out.observations["legit_block_rate"] =
        static_cast<double>(result.legit.blocked) /
        static_cast<double>(std::max<std::uint64_t>(1, result.legit.booking_sessions));
    out.observations["lost_sales"] = static_cast<double>(result.legit.lost_sales_no_seats);
    out.observations["rotations"] = static_cast<double>(result.rotations);
    if (job.seed == kBaseSeed) base[posture_idx] = std::move(result);
    return out;
  };

  std::cout << "Running " << std::size(postures) << " mitigation postures x " << n_seeds
            << " seeds (3 simulated weeks each)...\n";
  scenario::FleetOptions fleet_options;
  fleet_options.threads = bench::Options::parse(argc, argv).fleet_threads;
  const scenario::FleetReport report =
      scenario::run_fleet(scenario::cross_jobs(variant_names, seeds), run_one, fleet_options);

  std::cout << "\n" << report.render_table("MIT: mitigation ablation (Airline A attack)")
            << "\n";

  for (const auto& maybe : base) {
    if (!maybe) {
      std::cout << "MIT SHAPE: FAILED (missing base-seed run)\n";
      return 1;
    }
  }
  const auto& none = *base[0];
  const auto& cap4 = *base[1];
  const auto& fp_only = *base[3];
  const auto& honeypot = *base[6];

  bool ok = true;
  auto expect = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::cout << "SHAPE VIOLATION: " << what << "\n";
      ok = false;
    }
  };
  // §IV-A: a NiP cap alone does not stop the attacker — they adapt.
  expect(none.target_depletion_days > 0.3, "undefended attack depletes the flight");
  expect(cap4.target_depletion_days > 0.2, "cap alone leaves depletion high (attacker adapts)");
  expect(cap4.bot.current_nip == 4, "attacker shifted to the cap");
  // Fingerprint blocking forces rotations but only buys hours per rule.
  expect(fp_only.rotations > none.rotations, "fp blocking forces rotations");
  expect(fp_only.bot.counters.blocked > 0, "fp blocking blocks the current identity");
  // Honeypot: attacker effort absorbed by the decoy, rotation pressure drops
  // (blocked identities never learn they were caught).
  expect(honeypot.honeypot.absorption_rate() > 0.15, "honeypot absorbs attacker holds");
  expect(honeypot.honeypot.decoy_holds > 0, "decoy holds recorded");
  expect(honeypot.bot.counters.blocked < fp_only.bot.counters.blocked,
         "honeypotted attacker sees fewer explicit blocks than hard blocking");
  // Friction stays bounded everywhere — across every posture AND seed: the
  // fleet's worst per-run block rate must clear the same bar the single-seed
  // bench used.
  for (const auto& variant : report.variants) {
    expect(variant.observations.at("legit_block_rate").stats.max() < 0.15,
           "legit block rate bounded across seeds");
  }
  std::cout << (ok ? "MIT SHAPE: OK\n" : "MIT SHAPE: FAILED\n");
  return ok ? 0 : 1;
}
