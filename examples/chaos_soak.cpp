// Chaos soak CLI: run a seeded chaos campaign, or replay a minimized
// reproducer artifact from a previous failing campaign.
//
//   $ ./chaos_soak out/chaos                    # default 8 x 4 grid, 6 h jobs
//   $ ./chaos_soak out/chaos 20 10 2            # 20 schedule seeds x 10
//                                               # scenario seeds, 2 h horizon
//   $ ./chaos_soak out/chaos 20 10 2 8          # ... on 8 threads
//   $ ./chaos_soak --repro out/chaos/chaos_repro_3_104.fsc out/repro
//
// Campaign mode runs every (schedule seed x scenario seed) job under the full
// oracle stack — platform invariants at every epoch barrier, crash recovery,
// byte-identical journal replay — shrinks any failure with ddmin, and writes
// the minimized reproducer as a chaos_repro artifact. Exit 0 iff every job
// passed.
//
// Repro mode loads a chaos_repro artifact and re-runs exactly that (seed,
// schedule) job. Exit 0 when the job now passes; exit 1 while it still fails
// (the expected state while debugging a live reproducer — the violations are
// printed for triage).
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/bench/options.hpp"
#include "core/chaos/chaos.hpp"
#include "core/chaos/runner.hpp"
#include "core/scenario/replay_harness.hpp"

using namespace fraudsim;

namespace {

scenario::RecordedScenarioConfig soak_config(sim::SimTime horizon) {
  scenario::RecordedScenarioConfig config;
  config.seed = 1;  // overwritten per job
  config.horizon = horizon;
  config.flights = 4;
  config.capacity = 40;
  config.legit.booking_sessions_per_hour = 6;
  config.legit.browse_sessions_per_hour = 4;
  config.legit.otp_logins_per_hour = 3;
  config.attacker_start = sim::hours(1);
  config.attacker_period = sim::minutes(15);
  config.controller_fit_at = sim::hours(1);
  config.controller.sweep_interval = sim::hours(1);
  config.rate_limits.push_back(mitigate::RateLimitSpec{
      "hold-per-ip", web::Endpoint::HoldReservation, mitigate::RateKey::ByIp, 20, sim::kHour});
  config.checkpoint_every = sim::minutes(30);
  config.invariant_barrier_every = sim::minutes(15);
  return config;
}

int usage() {
  std::cerr << "usage: chaos_soak <work-dir> [schedule-seeds] [scenario-seeds] [horizon-hours]"
               " [threads]\n"
               "       chaos_soak --repro <chaos_repro-file> <work-dir> [horizon-hours]\n";
  return 2;
}

int run_repro(const std::string& path, const std::string& work_dir, sim::SimTime horizon) {
  const auto loaded = chaos::read_chaos_repro(path);
  if (!loaded.has_value()) {
    std::cerr << "error: cannot load reproducer: " << loaded.error() << "\n";
    return 2;
  }
  std::cout << "reproducer: scenario seed " << loaded.value().scenario_seed << ", schedule "
            << loaded.value().schedule.describe() << "\n";

  chaos::ChaosJobConfig job;
  job.scenario = soak_config(horizon);
  job.scenario.seed = loaded.value().scenario_seed;
  job.schedule = loaded.value().schedule;
  job.run_dir = (std::filesystem::path(work_dir) / "repro-run").string();
  std::error_code ec;
  std::filesystem::remove_all(job.run_dir, ec);
  std::filesystem::create_directories(work_dir, ec);

  const auto result = chaos::run_chaos_job(job);
  std::cout << "faults injected:  " << result.faults_injected << "\n"
            << "invariant checks: " << result.invariant_checks << "\n"
            << "crashed:          " << (result.crashed ? "yes" : "no")
            << (result.crashed ? (result.recovered ? " (recovered)" : " (NOT recovered)") : "")
            << "\n"
            << "replay oracle:    "
            << (result.replay_verified ? "byte-identical"
                : result.replay_skipped ? "skipped"
                                        : "FAILED")
            << "\n";
  if (!result.error.empty()) std::cout << "error: " << result.error << "\n";
  for (const auto& v : result.violations) std::cout << "violation: " << v.render() << "\n";
  std::cout << (result.passed() ? "repro: job passes (failure no longer reproduces)\n"
                                : "repro: job still fails\n");
  return result.passed() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);

  if (!args.empty() && args[0] == "--repro") {
    if (args.size() < 3 || args.size() > 4) return usage();
    const sim::SimTime horizon =
        args.size() == 4 ? sim::hours(std::stoul(args[3])) : sim::hours(6);
    return run_repro(args[1], args[2], horizon);
  }

  if (args.empty() || args.size() > 5) return usage();
  const std::string work_dir = args[0];
  const std::uint64_t schedule_seeds = args.size() >= 2 ? std::stoull(args[1]) : 8;
  const std::uint64_t scenario_seeds = args.size() >= 3 ? std::stoull(args[2]) : 4;
  const sim::SimTime horizon = args.size() >= 4 ? sim::hours(std::stoul(args[3])) : sim::hours(6);

  chaos::ChaosCampaignConfig campaign;
  campaign.base = soak_config(horizon);
  campaign.generator = chaos::default_generator_config(horizon);
  for (std::uint64_t s = 1; s <= schedule_seeds; ++s) campaign.schedule_seeds.push_back(s);
  for (std::uint64_t s = 101; s <= 100 + scenario_seeds; ++s) {
    campaign.scenario_seeds.push_back(s);
  }
  campaign.work_dir = work_dir;
  campaign.threads = args.size() == 5 ? static_cast<unsigned>(std::stoul(args[4]))
                                      : bench::Options::from_env().fleet_threads;

  std::cout << "chaos campaign: " << schedule_seeds << " schedules x " << scenario_seeds
            << " seeds, " << sim::format_time(horizon) << " horizon\n";
  const auto report = chaos::run_chaos_campaign(campaign);
  std::cout << report.render();
  for (const auto& failure : report.failures) {
    std::cout << "\nFAILURE schedule-seed=" << failure.schedule_seed
              << " scenario-seed=" << failure.scenario_seed << "\n  " << failure.detail << "\n"
              << "  as drawn:  " << failure.schedule.describe() << "\n"
              << "  minimized: " << failure.minimized.describe() << "\n";
    for (const auto& v : failure.violations) std::cout << "  violation: " << v.render() << "\n";
    if (!failure.repro_path.empty()) {
      std::cout << "  reproducer: " << failure.repro_path << "\n";
    }
  }
  return report.all_passed() ? 0 : 1;
}
