// SHADOW (§V-C): offline re-scoring of recorded traffic — the shadow SOC.
//
// Records ONE live run per seed (seat-spin waves over legitimate demand,
// live mitigation loop) to a journal, then evaluates candidate
// rule/controller configurations purely offline by feeding the recorded
// traffic through each candidate and diffing verdicts against the recorded
// live decisions. The journalled actor kinds are the ground truth, so every
// verdict flip is attributable: newly-caught abuse, newly-missed abuse, or
// collateral on legitimate traffic. No candidate ever touches live traffic —
// exactly the staged-rollout loop industrial fraud teams run before shipping
// a rule.
//
// Seeds run as a fleet (each worker records and re-scores its own journal at
// a per-seed path); the table shows cross-seed means. Sanity gates: the
// identity candidate changes nothing ON ANY SEED, and (full run only) the
// tight hold limit catches additional abuser traffic on the base seed.
//
// FRAUDSIM_BENCH_SMOKE=1 shrinks the run (CI smoke: hours of sim time and 2
// seeds, same structure, no shape assertions on the tiny sample).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bench/options.hpp"
#include "core/scenario/fleet.hpp"
#include "core/scenario/replay_harness.hpp"
#include "util/table.hpp"

using namespace fraudsim;

namespace {

struct Scale {
  bool smoke = false;
  sim::SimTime horizon = sim::days(2);
  double bookings_per_hour = 12;
};

Scale detect_scale() {
  Scale s;
  if (bench::Options::env_flag("FRAUDSIM_BENCH_SMOKE")) {
    s.smoke = true;
    s.horizon = sim::hours(8);
    s.bookings_per_hour = 5;
  }
  return s;
}

scenario::RecordedScenarioConfig scenario_config(const Scale& scale, std::uint64_t seed) {
  scenario::RecordedScenarioConfig config;
  config.seed = seed;
  config.horizon = scale.horizon;
  config.legit.booking_sessions_per_hour = scale.bookings_per_hour;
  config.legit.browse_sessions_per_hour = scale.bookings_per_hour / 2;
  config.legit.otp_logins_per_hour = scale.bookings_per_hour / 3;
  config.attacker_start = sim::hours(2);
  config.controller_fit_at = sim::hours(2);
  config.controller.sweep_interval = sim::hours(1);
  return config;
}

std::vector<scenario::RescoreCandidate> make_candidates(
    const scenario::RecordedScenarioConfig& config) {
  std::vector<scenario::RescoreCandidate> candidates;

  scenario::RescoreCandidate identity;
  identity.name = "identity (recorded config)";
  candidates.push_back(identity);

  scenario::RescoreCandidate tight_holds;
  tight_holds.name = "hold-per-ip 10/h";
  tight_holds.configure_engine = [](mitigate::RuleEngine& engine) {
    engine.add_rate_limit(mitigate::RateLimitSpec{"shadow-hold-per-ip",
                                                  web::Endpoint::HoldReservation,
                                                  mitigate::RateKey::ByIp, 10, sim::kHour});
  };
  candidates.push_back(tight_holds);

  scenario::RescoreCandidate challenge;
  challenge.name = "challenge suspicious";
  challenge.configure_engine = [](mitigate::RuleEngine& engine) {
    engine.set_challenge_mode(mitigate::ChallengeMode::SuspiciousOnly);
  };
  candidates.push_back(challenge);

  scenario::RescoreCandidate aggressive;
  aggressive.name = "controller min_flagged_pnrs=2";
  mitigate::ControllerConfig aggressive_config = config.controller;
  aggressive_config.min_flagged_pnrs = 2;
  aggressive.controller = aggressive_config;
  candidates.push_back(aggressive);

  return candidates;
}

constexpr std::uint64_t kBaseSeed = 777;

}  // namespace

int main(int argc, char** argv) {
  const Scale scale = detect_scale();
  const std::size_t n_seeds = scale.smoke ? 2 : 3;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < n_seeds; ++i) seeds.push_back(kBaseSeed + i);

  // Base-seed per-candidate reports for the sanity gates, written by the one
  // worker that runs kBaseSeed.
  std::optional<std::vector<scenario::RescoreReport>> base;

  const auto run_one = [&](const scenario::FleetJob& job) {
    const auto config = scenario_config(scale, job.seed);
    const std::string journal_path =
        "exp_shadow_rescore." + std::to_string(job.seed) + ".journal";
    const auto recorded = scenario::record_run(config, journal_path);
    if (!recorded.has_value()) {
      throw std::runtime_error("record failed (seed " + std::to_string(job.seed) +
                               "): " + recorded.error());
    }

    scenario::FleetRunResult out;
    std::vector<scenario::RescoreReport> reports;
    for (const auto& candidate : make_candidates(config)) {
      const auto result = scenario::shadow_rescore(config, journal_path, candidate);
      if (!result.has_value()) {
        std::remove(journal_path.c_str());
        throw std::runtime_error("rescore failed (" + candidate.name + ", seed " +
                                 std::to_string(job.seed) + "): " + result.error());
      }
      const auto& r = result.value();
      out.observations[candidate.name + ": changes"] = static_cast<double>(r.verdict_changes);
      out.observations[candidate.name + ": newly caught"] = static_cast<double>(r.newly_caught);
      out.observations[candidate.name + ": newly missed"] = static_cast<double>(r.newly_missed);
      out.observations[candidate.name + ": blocked legit"] =
          static_cast<double>(r.newly_blocked_legit);
      reports.push_back(r);
    }
    std::remove(journal_path.c_str());
    if (job.seed == kBaseSeed) base = std::move(reports);
    return out;
  };

  std::cout << "Recording + re-scoring " << n_seeds << " live runs ("
            << (scale.smoke ? "smoke scale" : "2 simulated days each") << ")...\n";
  scenario::FleetOptions fleet_options;
  fleet_options.threads = bench::Options::parse(argc, argv).fleet_threads;
  scenario::FleetReport fleet_report;
  try {
    fleet_report =
        scenario::run_fleet(scenario::cross_jobs({"shadow"}, seeds), run_one, fleet_options);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  if (!base) {
    std::cerr << "FAIL: missing base-seed run\n";
    return 1;
  }
  const auto& reports = *base;

  const auto config = scenario_config(scale, kBaseSeed);
  util::AsciiTable table({"Candidate", "requests", "changes", "newly caught", "newly missed",
                          "blocked legit", "allowed legit"});
  const auto candidates = make_candidates(config);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& r = reports[i];
    table.add_row({candidates[i].name, std::to_string(r.requests),
                   std::to_string(r.verdict_changes), std::to_string(r.newly_caught),
                   std::to_string(r.newly_missed), std::to_string(r.newly_blocked_legit),
                   std::to_string(r.newly_allowed_legit)});
  }
  std::cout << "\n=== SHADOW: offline re-scoring of recorded traffic (seed " << kBaseSeed
            << ") ===\n" << table.render() << "\n";
  std::cout << fleet_report.render_table("SHADOW: cross-seed spread") << "\n";

  bool ok = true;
  // The identity candidate must change nothing on EVERY seed — a faithful
  // replay is the precondition for trusting any offline verdict diff.
  const auto* agg = fleet_report.find("shadow");
  const auto& identity_changes =
      agg->observations.at("identity (recorded config): changes");
  if (identity_changes.stats.max() != 0.0) {
    std::cerr << "FAIL: identity candidate flipped verdicts on some seed "
              << "(replay is not faithful)\n";
    ok = false;
  }
  if (!scale.smoke && reports[1].newly_caught == 0) {
    std::cerr << "FAIL: tight hold limit caught no additional abuser traffic\n";
    ok = false;
  }
  if (ok) {
    std::cout << "identity candidate: zero verdict changes on all " << n_seeds
              << " seeds (faithful replay); " << reports[1].newly_caught
              << " additional abuser requests caught offline by the hold limit (base seed).\n";
  }
  return ok ? 0 : 1;
}
