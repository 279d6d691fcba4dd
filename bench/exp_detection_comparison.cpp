// DET (§III): why traditional bot detection fails on advanced functional
// abuse. Mixed traffic (humans, a classic scraper, a low-volume DoI bot, an
// SMS-pumping bot with clean spoofed fingerprints) is scored per detector
// family at the actor level.
//
// Shape targets:
//   * behaviour-based (volume + trained classifier) catches the scraper,
//     misses the DoI and pumping bots
//   * fingerprint artifacts catch the naive scraper, miss rotated spoofers
//   * feature-level detectors (NiP anomaly, identity patterns, SMS surge)
//     catch what the traditional families miss
//
// The scenario runs as a multi-seed fleet: per-family catch RATES across
// seeds land in the fleet table (a family that catches an attacker only on a
// lucky seed shows up as a fractional rate), actor-level confusion tallies
// merge cell-wise into per-seed-pool precision/recall, and the catch/miss
// matrix plus shape assertions stay pinned to the base seed.
// FRAUDSIM_BENCH_SMOKE=1 drops to 2 seeds.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/scraper.hpp"
#include "attack/seat_spin.hpp"
#include "attack/sms_pump.hpp"
#include "core/bench/options.hpp"
#include "core/detect/pipeline.hpp"
#include "core/scenario/env.hpp"
#include "core/scenario/fleet.hpp"
#include "util/table.hpp"

using namespace fraudsim;

namespace {

bool actor_flagged(const detect::PipelineResult& result, const std::string& prefix,
                   web::ActorId actor) {
  for (const auto& alert : result.alerts.alerts()) {
    if (alert.detector.rfind(prefix, 0) == 0 && alert.actor == actor) return true;
  }
  return false;
}

struct Family {
  const char* name;
  const char* prefix;
};

constexpr Family kFamilies[] = {
    {"behaviour: volume thresholds", "behavior.volume"},
    {"behaviour: trained classifier", "behavior.classifier"},
    {"knowledge: fp artifacts", "fingerprint.artifact"},
    {"knowledge: fp consistency", "fingerprint.consistency"},
    {"advanced: NiP anomaly", "nip."},
    {"advanced: identity patterns", "name."},
    {"advanced: SMS surge/rate", "sms."},
    {"knowledge: IP reputation", "ip.reputation"},
    {"future (SecV): navigation model", "behavior.navigation"},
    {"future (SecV): pointer biometrics", "biometric.pointer"},
};

// One full mixed-traffic run at `seed`: simulate, train, score.
struct DetectionRun {
  detect::PipelineResult result;
  web::ActorId scraper_actor{};
  web::ActorId doi_actor{};
  web::ActorId pump_actor{};
};

DetectionRun run_detection(std::uint64_t seed) {
  scenario::EnvConfig env_config;
  env_config.seed = seed;
  env_config.legit.booking_sessions_per_hour = 20;
  env_config.legit.browse_sessions_per_hour = 10;
  env_config.legit.otp_logins_per_hour = 6;
  scenario::Env env(env_config);
  env.add_flights("A", 8, 150, sim::days(30));
  const auto target = env.app.add_flight("A", 801, 100, sim::days(9));

  attack::ScraperConfig scraper_config;
  scraper_config.requests_per_session = 300;
  scraper_config.sessions = 10;          // keeps scraping through the window
  scraper_config.session_gap = sim::hours(8);
  attack::ScraperBot scraper(env.app, env.actors, env.datacenter, env.population, scraper_config,
                             env.rng.fork("scraper"));

  attack::SeatSpinConfig doi_config;
  doi_config.target = target;
  attack::SeatSpinBot doi(env.app, env.actors, env.residential, env.population, doi_config,
                          env.rng.fork("doi"));

  attack::SmsPumpConfig pump_config;
  pump_config.tickets_to_buy = 4;
  pump_config.mean_request_gap = sim::minutes(1);
  pump_config.stop_at = sim::days(4);
  attack::SmsPumpBot pump(env.app, env.actors, env.residential, env.population, env.tariffs,
                          pump_config, env.rng.fork("pump"));

  // Day 0 is clean history with a known scraper incident (training data);
  // the novel DoI and pumping campaigns begin on day 1.
  env.start_background(sim::days(4));
  scraper.start();
  env.sim.schedule_at(sim::days(1), [&] {
    doi.start();
    pump.start();
  });
  env.run_until(sim::days(4));

  detect::DetectionPipeline pipeline;
  pipeline.fit_nip_baseline(env.app, 0, sim::days(1));
  pipeline.fit_navigation(env.app, 0, sim::days(1));
  pipeline.enable_ip_reputation(env.geo);
  sim::Rng rng(9);
  // Honest supervision: the classifier is trained on labels from *past*
  // scraper incidents — nobody has ground truth for the new campaigns.
  pipeline.train_behavior(env.app, 0, sim::days(1), rng, [&](web::ActorId actor) {
    return env.actors.kind_of(actor) == app::ActorKind::Scraper ? 1 : 0;
  });

  DetectionRun run;
  run.result = pipeline.run(env.app, env.actors, sim::days(1), sim::days(4));
  run.scraper_actor = scraper.actor();
  run.doi_actor = doi.actor();
  run.pump_actor = pump.actor();
  return run;
}

bool pump_caught(const DetectionRun& run, const Family& family) {
  // SMS alerts are global (not actor-attributed); attribute them to the
  // pump when any fired, since it is the only SMS abuser in the scenario.
  if (std::string(family.prefix) == "sms.") {
    return !run.result.alerts.by_detector("sms.country-surge").empty() ||
           !run.result.alerts.by_detector("sms.path-rate").empty() ||
           !run.result.alerts.by_detector("sms.per-booking-rate").empty();
  }
  return actor_flagged(run.result, family.prefix, run.pump_actor);
}

bool smoke() {
  return bench::Options::env_flag("FRAUDSIM_BENCH_SMOKE");
}

constexpr std::uint64_t kBaseSeed = 3333;

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n_seeds = smoke() ? 2 : 3;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < n_seeds; ++i) seeds.push_back(kBaseSeed + i);

  std::optional<DetectionRun> base;
  const auto run_one = [&base](const scenario::FleetJob& job) {
    DetectionRun run = run_detection(job.seed);

    scenario::FleetRunResult out;
    for (const auto& family : kFamilies) {
      const std::string prefix = family.prefix;
      out.observations["scraper caught: " + prefix] =
          actor_flagged(run.result, prefix, run.scraper_actor) ? 1.0 : 0.0;
      out.observations["doi caught: " + prefix] =
          actor_flagged(run.result, prefix, run.doi_actor) ? 1.0 : 0.0;
      out.observations["pump caught: " + prefix] = pump_caught(run, family) ? 1.0 : 0.0;
    }
    // Pooled actor-level confusion across every detector: the fleet merges
    // the per-seed tallies cell-wise, so the report's precision/recall score
    // the whole seed pool, not one lucky draw.
    for (const auto& report : run.result.reports) out.confusion.merge(report.score.confusion);
    if (job.seed == kBaseSeed) base = std::move(run);
    return out;
  };

  std::cout << "Running mixed traffic (4 simulated days) x " << n_seeds << " seeds...\n";
  scenario::FleetOptions fleet_options;
  fleet_options.threads = bench::Options::parse(argc, argv).fleet_threads;
  const scenario::FleetReport fleet_report =
      scenario::run_fleet(scenario::cross_jobs({"mixed-traffic"}, seeds), run_one, fleet_options);
  if (!base) {
    std::cout << "DET SHAPE: FAILED (missing base-seed run)\n";
    return 1;
  }
  const DetectionRun& run = *base;
  const detect::PipelineResult& result = run.result;
  const auto* agg = fleet_report.find("mixed-traffic");

  // Catch rate across seeds, rendered into the familiar catch/miss matrix:
  // 3/3 CAUGHT, 0/3 missed, anything between is seed-dependent.
  const auto rate_cell = [agg, n_seeds](const std::string& name) {
    const double rate = agg->observations.at(name).stats.mean();
    const auto hits = static_cast<std::size_t>(rate * static_cast<double>(n_seeds) + 0.5);
    std::string cell = hits == n_seeds ? "CAUGHT" : (hits == 0 ? "missed" : "mixed");
    return cell + " (" + std::to_string(hits) + "/" + std::to_string(n_seeds) + ")";
  };
  util::AsciiTable table({"Detector family", "scraper", "DoI bot", "SMS-pump bot"});
  for (const auto& family : kFamilies) {
    const std::string prefix = family.prefix;
    table.add_row({family.name, rate_cell("scraper caught: " + prefix),
                   rate_cell("doi caught: " + prefix), rate_cell("pump caught: " + prefix)});
  }
  std::cout << "\n=== DET: detector family vs attack type (" << n_seeds << " seeds) ===\n"
            << table.render() << "\n";

  // Per-detector precision/recall at the actor level (abuser criterion),
  // base seed; the pooled cross-seed confusion follows in the fleet table.
  util::AsciiTable score_table({"Detector", "alerts", "precision", "recall", "F1"});
  for (const auto& report : result.reports) {
    score_table.add_row({report.detector, std::to_string(report.alerts),
                         util::format_percent(report.score.confusion.precision(), 0),
                         util::format_percent(report.score.confusion.recall(), 0),
                         util::format_percent(report.score.confusion.f1(), 0)});
  }
  std::cout << score_table.render() << "\n";
  std::cout << fleet_report.render_table("DET: cross-seed catch rates") << "\n";

  bool ok = true;
  auto expect = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::cout << "SHAPE VIOLATION: " << what << "\n";
      ok = false;
    }
  };
  auto traditional_behaviour = [&](web::ActorId actor) {
    return actor_flagged(result, "behavior.volume", actor) ||
           actor_flagged(result, "behavior.classifier", actor);
  };
  expect(traditional_behaviour(run.scraper_actor),
         "behaviour-based detection catches the scraper");
  expect(!traditional_behaviour(run.doi_actor),
         "behaviour-based detection misses the low-volume DoI bot");
  expect(!traditional_behaviour(run.pump_actor),
         "behaviour-based detection misses the SMS-pumping bot");
  expect(!actor_flagged(result, "fingerprint.artifact", run.doi_actor),
         "clean spoofed fingerprints evade artifact checks");
  expect(actor_flagged(result, "name.", run.doi_actor) ||
             actor_flagged(result, "nip.", run.doi_actor),
         "feature-level detectors catch the DoI bot");
  expect(!result.alerts.by_detector("sms.per-booking-rate").empty() ||
             !result.alerts.by_detector("sms.country-surge").empty(),
         "SMS monitors catch the pumping");
  // The §V future directions close the gap the traditional families leave.
  expect(actor_flagged(result, "ip.reputation", run.scraper_actor),
         "IP reputation catches the datacenter-proxied scraper");
  expect(!actor_flagged(result, "ip.reputation", run.doi_actor),
         "residential proxies defeat IP reputation");
  expect(actor_flagged(result, "behavior.navigation", run.doi_actor),
         "navigation modelling catches the DoI hold-loop");
  expect(actor_flagged(result, "biometric.pointer", run.doi_actor),
         "pointer biometrics catch the scripted DoI bot");
  expect(actor_flagged(result, "biometric.pointer", run.pump_actor),
         "replay detection catches the human-mimicking pump bot");
  // Cross-seed: the §III story must hold in EVERY seed, not just the base
  // one — behaviour-based detection never sees the DoI bot.
  expect(agg->observations.at("doi caught: behavior.volume").stats.max() == 0.0,
         "volume thresholds miss the DoI bot on every seed");
  std::cout << (ok ? "DET SHAPE: OK\n" : "DET SHAPE: FAILED\n");
  return ok ? 0 : 1;
}
