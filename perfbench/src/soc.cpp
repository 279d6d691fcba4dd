// soc_detect: the SOC's batch detection on a mixed traffic window.
//
// Set-up simulates the window on the real platform — legitimate traffic, a
// scraper incident on the clean first day (the classifier's labelled
// history), then a seat-spinning bot, an SMS pumper and a 16-member ring with
// the entity-graph tap on — and fits the NiP and navigation models and trains
// the classifier. The measured phase runs DetectionPipeline::run over the
// attack window with every family enabled (IP reputation, biometrics, graph),
// sliced into hourly batch epochs, pass after pass. The admit path does no
// work while it is measured.
//
// The traced run times each family from outside: it sessionizes the window,
// builds the same hourly epoch views the pipeline builds, and calls
// Detector::score_batch on every detector DetectionPipeline::build_detectors()
// returns.
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <set>

#include "attack/ring_orchestrator.hpp"
#include "attack/scraper.hpp"
#include "attack/seat_spin.hpp"
#include "attack/sms_pump.hpp"
#include "core/detect/graph/entity_graph.hpp"
#include "core/detect/graph/graph_ingest.hpp"
#include "core/detect/labels.hpp"
#include "core/detect/pipeline.hpp"
#include "core/invariant/invariant.hpp"
#include "core/scenario/env.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace fraudsim;

struct SocWindow {
  sim::SimTime attack_start = sim::days(1);  // [0, attack_start) is clean history
  sim::SimTime end = 0;
};

SocWindow window_for(bool smoke) {
  SocWindow w;
  w.end = w.attack_start + (smoke ? sim::hours(8) : sim::hours(24));
  return w;
}

// The simulated window plus the fitted pipeline that scores it.
struct SocPlatform {
  SocPlatform(std::uint64_t seed, const SocWindow& window) {
    scenario::EnvConfig config;
    config.seed = seed;
    config.legit.booking_sessions_per_hour = 30;
    config.legit.browse_sessions_per_hour = 30;
    config.legit.otp_logins_per_hour = 10;
    env = std::make_unique<scenario::Env>(config);
    env->add_flights("S", scenario::Env::fleet_size_for(30, window.end, 150), 150,
                     sim::days(30));
    graph = std::make_unique<detect::graph::EntityGraph>();
    ingest = std::make_unique<detect::graph::GraphIngest>(*graph);
    env->app.set_tap(ingest.get());

    attack::ScraperConfig scraper_config;
    scraper_config.sessions = 3;
    scraper_config.session_gap = sim::hours(6);
    scraper = std::make_unique<attack::ScraperBot>(env->app, env->actors, env->datacenter,
                                                   env->population, scraper_config,
                                                   env->rng.fork("scraper"));
    attack::SeatSpinConfig doi_config;
    doi_config.target = env->app.add_flight("S", 801, 100, sim::days(9));
    doi = std::make_unique<attack::SeatSpinBot>(env->app, env->actors, env->residential,
                                                env->population, doi_config,
                                                env->rng.fork("doi"));
    attack::SmsPumpConfig pump_config;
    pump_config.tickets_to_buy = 4;
    pump_config.mean_request_gap = sim::minutes(1);
    pump_config.stop_at = window.end;
    pump = std::make_unique<attack::SmsPumpBot>(env->app, env->actors, env->residential,
                                                env->population, env->tariffs, pump_config,
                                                env->rng.fork("pump"));
    attack::RingConfig ring_config;
    ring_config.start = window.attack_start;
    ring = std::make_unique<attack::RingOrchestrator>(env->app, env->actors, env->residential,
                                                      env->population, ring_config,
                                                      env->rng.fork("ring"));

    invariant::register_platform_invariants(invariants, env->app, &env->engine);
    invariant::register_graph_invariants(invariants, *graph, &env->app);

    env->legit->start(window.end);
    scraper->start();
    env->sim.schedule_at(window.attack_start, [this] {
      doi->start();
      pump->start();
    });
    ring->start(window.end);
    for (sim::SimTime at = sim::kHour; at <= window.end; at += sim::kHour) {
      env->sim.schedule_at(at, [this, at] {
        env->apply_expiry_sweep();
        (void)invariants.check_all(at);
      });
    }
    env->run_until(window.end);

    detect::PipelineConfig pipeline_config;
    pipeline_config.batch_epoch = sim::kHour;
    pipeline_config.max_batch_epochs =
        static_cast<std::size_t>((window.end - window.attack_start) / sim::kHour);
    pipeline = std::make_unique<detect::DetectionPipeline>(pipeline_config);
    pipeline->fit_nip_baseline(env->app, 0, window.attack_start);
    pipeline->fit_navigation(env->app, 0, window.attack_start);
    pipeline->enable_ip_reputation(env->geo);
    pipeline->enable_graph(*graph);
    // Supervision from the past scraper incident only: nobody has labels for
    // the new campaigns.
    sim::Rng rng(seed ^ 0x50C);
    const web::ActorId scraper_actor = scraper->actor();
    pipeline->train_behavior(env->app, 0, window.attack_start, rng,
                             [scraper_actor](web::ActorId actor) {
                               return actor == scraper_actor ? 1 : 0;
                             });
  }

  std::unique_ptr<scenario::Env> env;
  std::unique_ptr<detect::graph::EntityGraph> graph;
  std::unique_ptr<detect::graph::GraphIngest> ingest;
  std::unique_ptr<attack::ScraperBot> scraper;
  std::unique_ptr<attack::SeatSpinBot> doi;
  std::unique_ptr<attack::SmsPumpBot> pump;
  std::unique_ptr<attack::RingOrchestrator> ring;
  invariant::InvariantRegistry invariants;
  std::unique_ptr<detect::DetectionPipeline> pipeline;
};

std::uint64_t alerts_digest(const detect::AlertSink& alerts) {
  std::uint64_t h = util::fnv1a("alerts");
  for (const auto& a : alerts.alerts()) {
    h = util::fnv1a_append(h, a.detector);
    h = util::fnv1a_append(h, a.explanation);
    h = util::hash_combine(h, static_cast<std::uint64_t>(a.time));
    h = util::hash_combine(h, a.actor ? a.actor->value() : 0);
    h = util::hash_combine(h, a.session ? a.session->value() : 0);
  }
  return h;
}

// One family's time and alerts in one traced pass.
struct FamilyTiming {
  std::string name;
  std::int64_t ns = 0;
  std::uint64_t alerts = 0;
};

struct TracedPass {
  std::int64_t sessionize_ns = 0;
  std::int64_t wall_ns = 0;
  std::size_t sessions = 0;
  std::size_t epochs = 0;
  std::vector<FamilyTiming> families;
  std::uint64_t digest = 0;  // of the alerts; must equal the pipeline's, or the copy drifted
};

// Span names must outlive the span log; detector names are interned here.
const char* intern(std::set<std::string>& names, const std::string& name) {
  return names.insert(name).first->c_str();
}

// The pipeline's work, re-done from outside with a span around each stage:
// sessionize, partition into the pipeline's hourly epoch views, then every
// detector's score_batch. The partition copies DetectionPipeline::run's; the
// caller checks that the alerts match run()'s byte for byte, so a drift in
// the copy fails the run instead of timing different work.
TracedPass traced_pass(const SocPlatform& p, const SocWindow& w, SpanLog& spans,
                       std::set<std::string>& names) {
  TracedPass pass;
  const detect::PipelineConfig& config = p.pipeline->config();
  const std::uint64_t pass_id = spans.reserve();
  const std::int64_t start = now_ns();
  const web::Sessionizer sessionizer(config.session_timeout);
  const std::vector<web::Session> sessions =
      sessionizer.sessionize(p.env->app.weblog().range(w.attack_start, w.end));
  const std::int64_t sessionized = now_ns();
  spans.record(spans.reserve(), "detect.sessionize", start, sessionized, pass_id);
  pass.sessionize_ns = sessionized - start;
  pass.sessions = sessions.size();

  const sim::SimDuration span = w.end - w.attack_start;
  const auto slices = std::clamp<std::size_t>(
      static_cast<std::size_t>((span + config.batch_epoch - 1) / config.batch_epoch), 1,
      config.max_batch_epochs);
  const auto slice = static_cast<sim::SimDuration>(
      (span + static_cast<sim::SimDuration>(slices) - 1) / static_cast<sim::SimDuration>(slices));
  std::vector<std::pair<sim::SimTime, sim::SimTime>> epochs;
  for (std::size_t k = 0; k < slices; ++k) {
    const sim::SimTime from = w.attack_start + static_cast<sim::SimDuration>(k) * slice;
    if (from >= w.end) break;
    epochs.emplace_back(from, std::min<sim::SimTime>(w.end, from + slice));
  }
  std::vector<std::vector<web::Session>> per_epoch(epochs.size());
  for (const auto& s : sessions) {
    std::size_t idx = 0;
    while (idx + 1 < epochs.size() && s.start() >= epochs[idx].second) ++idx;
    per_epoch[idx].push_back(s);
  }
  std::vector<detect::RequestView> views;
  views.reserve(epochs.size());
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    views.push_back(detect::RequestView{p.env->app, epochs[e].first, epochs[e].second,
                                        per_epoch[e], per_epoch[e], 1});
  }
  pass.epochs = views.size();

  detect::AlertSink alerts;
  for (const auto& detector : p.pipeline->build_detectors()) {
    std::vector<detect::BatchScore> scores(views.size());
    const std::size_t before = alerts.count();
    const std::int64_t t0 = now_ns();
    detector->score_batch(views, scores, alerts);
    const std::int64_t t1 = now_ns();
    const std::string name = detector->name();
    spans.record(spans.reserve(), intern(names, "detect." + name), t0, t1, pass_id);
    pass.families.push_back(FamilyTiming{name, t1 - t0, alerts.count() - before});
  }
  const std::int64_t end = now_ns();
  spans.record(pass_id, "detect.pass", start, end);
  pass.wall_ns = end - start;
  pass.digest = alerts_digest(alerts);
  return pass;
}

struct Rep {
  double setup_s = 0.0;
  std::vector<double> run_ns;  // one pipeline.run per pass
  std::vector<TracedPass> traced;
};

// Actor-level score of the union of every family's alerts.
detect::ActorScore actor_score(const detect::PipelineResult& result,
                               const app::ActorRegistry& registry) {
  return detect::score_actors(detect::flagged_actors(result.alerts.alerts()),
                              detect::actors_of(result.sessions), registry,
                              detect::TruthCriterion::Abuser);
}

}  // namespace

RunResult run_soc_detect(const Options& options) {
  RunResult result;
  const SocWindow window = window_for(options.smoke);
  // One set-up per input (median set-up time), each followed by an equal
  // share of the measured time.
  const int inputs = options.smoke ? 1 : 3;
  const double per_input_s = options.seconds / inputs;
  std::set<std::string> names;  // span names; outlives the span log
  SpanLog spans(100'000);
  std::vector<Rep> done;
  PooledRate sessions(inputs, Reading::Fastest);
  PooledRate requests(inputs, Reading::Fastest);  // weblog rows analysed
  std::uint64_t skipped = 0;
  std::uint64_t family_runs = 0;
  util::ConfusionCounts confusion;  // pooled over inputs

  for (int k = 0; k < inputs; ++k) {
    Rep rep;
    const std::int64_t start = now_ns();
    const SocPlatform p(input_seed(options.seed, k), window);
    const std::int64_t measured_from = now_ns();
    rep.setup_s = seconds_between(start, measured_from);
    const std::uint64_t rows = p.env->app.weblog().range(window.attack_start, window.end).size();
    const auto budget_end = measured_from + static_cast<std::int64_t>(per_input_s * 1e9);
    std::uint64_t first_digest = 0;
    do {
      const std::int64_t t0 = now_ns();
      const detect::PipelineResult out =
          p.pipeline->run(p.env->app, p.env->actors, window.attack_start, window.end);
      const std::int64_t t1 = now_ns();
      rep.run_ns.push_back(static_cast<double>(t1 - t0));
      sessions.add(k, static_cast<double>(out.sessions.size()), seconds_between(t0, t1));
      requests.add(k, static_cast<double>(rows), seconds_between(t0, t1));
      skipped += out.skipped.size();
      family_runs += p.pipeline->build_detectors().size();
      const std::uint64_t digest = alerts_digest(out.alerts);
      if (rep.run_ns.size() == 1) {
        first_digest = digest;
        confusion.merge(actor_score(out, p.env->actors).confusion);
        // Ring caught: graph.ring flags at least 80% of the members.
        std::set<web::ActorId> members(p.ring->members().begin(), p.ring->members().end());
        std::set<web::ActorId> caught;
        for (const auto& a : out.alerts.alerts()) {
          if (a.detector == "graph.ring" && a.actor && members.count(*a.actor) != 0) {
            caught.insert(*a.actor);
          }
        }
        const std::string input = "/input" + std::to_string(k);
        std::cout << "shape soc_detect" << input << ": graph.ring caught " << caught.size()
                  << " of " << members.size() << " ring members; " << out.sessions.size()
                  << " sessions in " << (window.end - window.attack_start) / sim::kHour
                  << " hourly epochs; " << out.alerts.count() << " alerts\n";
        result.expect(!members.empty() && caught.size() * 5 >= members.size() * 4,
                      "shape: the ring was not caught (graph.ring flagged " +
                          std::to_string(caught.size()) + " of " +
                          std::to_string(members.size()) + " members)");
        print_digest("alerts" + input, digest);
        print_digest("weblog_rows" + input,
                     util::hash_combine(p.env->app.weblog().size(), rows));
      } else {
        result.expect(digest == first_digest, "determinism: a repeated pass changed the alerts");
      }
      if (options.trace) {
        rep.traced.push_back(traced_pass(p, window, spans, names));
        result.expect(rep.traced.back().digest == first_digest,
                      "determinism: the traced pass's alerts differ from DetectionPipeline::run's");
      }
    } while (!options.smoke && now_ns() < budget_end);
    for (const auto& v : p.invariants.violations()) {
      result.problems.push_back("invariant " + v.render());
    }
    done.push_back(std::move(rep));
    release_free_memory();
  }

  result.attempted = family_runs;
  result.failed = skipped;
  const double failed_pct = family_runs == 0 ? 0.0
                                             : 100.0 * static_cast<double>(skipped) /
                                                   static_cast<double>(family_runs);

  std::vector<double> setups;
  for (const Rep& rep : done) setups.push_back(rep.setup_s);

  if (!options.trace) {
    result.add("setup_s", median(setups), "s");
    result.add("requests_per_s", requests.rate(), "1/s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::cout << "metric sessions_per_s " << sessions.rate() << " 1/s\n"
              << "metric detect_f1 " << confusion.f1() << " ratio\n"
              << "metric failed_pct " << failed_pct << " %\n";
    return result;
  }

  // --- Per-layer metrics (traced run) ---------------------------------------
  std::vector<double> run_ns;
  std::vector<double> traced_ns;
  std::vector<double> sessionize_ns;
  std::vector<double> unattributed;
  std::map<std::string, std::vector<double>> family_ns;
  std::map<std::string, std::uint64_t> family_alerts;
  double traced_total = 0.0;
  double unattributed_total = 0.0;
  const TracedPass* sample = nullptr;
  for (const Rep& rep : done) {
    run_ns.insert(run_ns.end(), rep.run_ns.begin(), rep.run_ns.end());
    for (const TracedPass& pass : rep.traced) {
      if (sample == nullptr) sample = &pass;
      traced_ns.push_back(static_cast<double>(pass.wall_ns));
      sessionize_ns.push_back(static_cast<double>(pass.sessionize_ns));
      std::int64_t covered = pass.sessionize_ns;
      for (const FamilyTiming& f : pass.families) {
        family_ns[f.name].push_back(static_cast<double>(f.ns));
        family_alerts[f.name] = f.alerts;
        covered += f.ns;
      }
      traced_total += static_cast<double>(pass.wall_ns);
      unattributed_total += static_cast<double>(pass.wall_ns - covered);
    }
  }
  double families_ns = 0.0;
  for (const auto& [name, values] : family_ns) families_ns += median(values);

  result.add("detect.sessionize_ns", median(sessionize_ns), "ns");
  result.add("detect.sessions", sample ? static_cast<double>(sample->sessions) : 0.0, "count");
  result.add("detect.epochs", sample ? static_cast<double>(sample->epochs) : 0.0, "count");
  for (const auto& [name, values] : family_ns) {
    std::string label = name;
    std::replace(label.begin(), label.end(), '.', '_');
    result.add("detect." + label + "_ns", median(values), "ns");
    result.add("detect." + label + "_alerts", static_cast<double>(family_alerts[name]), "count");
  }
  result.add("detect.overhead_ns", median(run_ns) - median(sessionize_ns) - families_ns, "ns");
  result.add("detect.sessions_per_s", sessions.rate(), "1/s");
  result.add("detect.f1", confusion.f1(), "ratio");
  result.add("trace.overhead_pct", 100.0 * (median(traced_ns) - median(run_ns)) / median(run_ns),
             "%");
  result.add("trace.unattributed_share",
             traced_total > 0 ? unattributed_total / traced_total : 0.0, "ratio");
  result.add("run.failed_pct", failed_pct, "%");

  if (!options.trace_path.empty()) {
    result.expect(spans.write_chrome_json(options.trace_path, "soc_detect"),
                  "could not write the Chrome trace");
    std::cout << "chrome_trace " << options.trace_path << " (" << spans.size()
              << " spans kept, " << spans.dropped() << " dropped)\n";
  }
  return result;
}

}  // namespace perfbench
