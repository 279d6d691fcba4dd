// doi_live and sms_pump_live: the paper's two live case studies (§IV-A Denial
// of Inventory, §IV-C SMS pumping) on the real platform, assembled here from
// scenario::Env, RuleEngine, MitigationController, LegitTraffic, the attack
// actors and (for doi_live) the entity-graph tap.
//
// Legitimate sessions arrive open-loop (Poisson, diurnal) whatever the
// platform answers; the attackers are closed-loop, since every block drives a
// rotation. In host time each repetition is a batch: a fixed, seed-derived
// timeline run as fast as the platform allows.
//
// Layers are timed from outside, through their public entry points:
//   * mitigate — a TimedPolicy decorator around the RuleEngine;
//   * app      — a ProbeJournal on Application::set_journal marks the end of
//                each facade call;
//   * graph    — a ProbeJournal on Application::set_tap wraps GraphIngest;
//   * airline / mitigate sweeps / invariant checks — the hourly housekeeping
//                event this file schedules itself (Env::apply_expiry_sweep,
//                MitigationController::sweep, InvariantRegistry::check_all),
//                the way the replay harness drives its sweeps;
//   * sim      — Simulation::step() brackets every event.
#include <algorithm>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>

#include "app/export.hpp"
#include "app/journal.hpp"
#include "attack/seat_spin.hpp"
#include "attack/sms_pump.hpp"
#include "core/detect/graph/entity_graph.hpp"
#include "core/detect/graph/graph_ingest.hpp"
#include "core/detect/nip_anomaly.hpp"
#include "core/invariant/invariant.hpp"
#include "core/mitigate/controller.hpp"
#include "core/scenario/env.hpp"
#include "util/hash.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace fraudsim;

enum class LiveKind { Doi, SmsPump };

// Simulated timeline of one batch, the same at smoke size. doi_live: clean
// day, attack day, day under the NiP cap (Fig. 1's three phases, a day each).
// sms_pump_live: 12 clean hours, then three days of pumping, which at the
// calibrated pacing is what it takes to reach about 42 countries.
struct Timeline {
  sim::SimTime attack_start = 0;
  sim::SimTime cap_at = 0;  // doi_live only
  sim::SimTime end = 0;
};

Timeline timeline_for(LiveKind kind) {
  if (kind == LiveKind::Doi) return Timeline{sim::days(1), sim::days(2), sim::days(3)};
  return Timeline{sim::hours(12), 0, sim::hours(12) + sim::days(3)};
}

// Wall-time accounting of one traced batch. Every span is either a simulated
// event or a child of one, so the layers' self times plus the time outside
// any event add up to the measured wall time.
class LiveProbe {
 public:
  explicit LiveProbe(SpanLog& spans) : spans_(spans) {}

  void begin_event(std::int64_t t) {
    event_start_ = cursor_ = t;
    event_id_ = spans_.reserve();
    call_id_ = 0;
    calls_in_event_ = 0;
  }
  void end_event(std::int64_t t, std::size_t queue_length) {
    events_.add(t - event_start_);
    if (calls_in_event_ == 1) single_call_events_.add(t - event_start_);
    queue_peak_ = std::max(queue_peak_, queue_length);
    spans_.record(event_id_, "sim.event", event_start_, t);
  }

  // A facade call completed (journal hook). Its span runs from the end of
  // the event's previous child, so it holds the caller's own code between
  // calls as well as the call itself.
  void call_done(std::int64_t t) {
    spans_.record(current_call(), "app.call", cursor_, t, event_id_);
    call_ns_ += t - cursor_;
    ++calls_in_event_;
    call_id_ = 0;
    cursor_ = t;
  }
  void evaluate(std::int64_t t0, std::int64_t t1) {
    evaluate_.add(t1 - t0);
    spans_.record(spans_.reserve(), "mitigate.evaluate", t0, t1, current_call());
  }
  void ingest(std::int64_t t0, std::int64_t t1) { child(ingest_, "graph.ingest", t0, t1); }
  void expiry_sweep(std::int64_t t0, std::int64_t t1) {
    child(expiry_, "airline.expiry_sweep", t0, t1);
  }
  void controller_sweep(std::int64_t t0, std::int64_t t1) {
    child(sweep_, "mitigate.sweep", t0, t1);
  }
  void invariant_check(std::int64_t t0, std::int64_t t1) {
    child(invariant_, "invariant.check", t0, t1);
  }

  Samples events_;
  Samples single_call_events_;
  Samples evaluate_;
  Samples ingest_;
  Samples expiry_;
  Samples sweep_;
  Samples invariant_;
  std::int64_t call_ns_ = 0;
  std::size_t queue_peak_ = 0;

 private:
  std::uint64_t current_call() {
    if (call_id_ == 0) call_id_ = spans_.reserve();
    return call_id_;
  }
  void child(Samples& samples, const char* name, std::int64_t t0, std::int64_t t1) {
    samples.add(t1 - t0);
    spans_.record(spans_.reserve(), name, t0, t1, event_id_);
    cursor_ = t1;
  }

  SpanLog& spans_;
  std::int64_t event_start_ = 0;
  std::int64_t cursor_ = 0;
  std::uint64_t event_id_ = 0;
  std::uint64_t call_id_ = 0;
  int calls_in_event_ = 0;
};

class TimedPolicy final : public app::IngressPolicy {
 public:
  TimedPolicy(app::IngressPolicy& inner, LiveProbe& probe) : inner_(inner), probe_(probe) {}

  app::PolicyDecision evaluate(const web::HttpRequest& request,
                               const app::ClientContext& ctx) override {
    const std::int64_t t0 = now_ns();
    app::PolicyDecision decision = inner_.evaluate(request, ctx);
    probe_.evaluate(t0, now_ns());
    return decision;
  }

 private:
  app::IngressPolicy& inner_;
  LiveProbe& probe_;
};

// Attached on the journal slot (inner == nullptr) it marks the end of every
// facade call; attached on the tap slot it times the tap it wraps.
class ProbeJournal final : public app::CallJournal {
 public:
  ProbeJournal(LiveProbe& probe, app::CallJournal* inner) : probe_(probe), inner_(inner) {}

  void on_browse(sim::SimTime time, const app::ClientContext& ctx, web::Endpoint endpoint,
                 web::HttpMethod method, app::CallStatus result) override {
    hook([&](app::CallJournal& j) { j.on_browse(time, ctx, endpoint, method, result); });
  }
  void on_hold(sim::SimTime time, const app::ClientContext& ctx, airline::FlightId flight,
               const std::vector<airline::Passenger>& passengers,
               const app::HoldResult& result) override {
    hook([&](app::CallJournal& j) { j.on_hold(time, ctx, flight, passengers, result); });
  }
  void on_quote_fare(sim::SimTime time, const app::ClientContext& ctx, airline::FlightId flight,
                     util::Money result) override {
    hook([&](app::CallJournal& j) { j.on_quote_fare(time, ctx, flight, result); });
  }
  void on_pay(sim::SimTime time, const app::ClientContext& ctx, const std::string& pnr,
              app::CallStatus result) override {
    hook([&](app::CallJournal& j) { j.on_pay(time, ctx, pnr, result); });
  }
  void on_request_otp(sim::SimTime time, const app::ClientContext& ctx,
                      const std::string& account, const sms::PhoneNumber& number,
                      const app::OtpResult& result) override {
    hook([&](app::CallJournal& j) { j.on_request_otp(time, ctx, account, number, result); });
  }
  void on_verify_otp(sim::SimTime time, const app::ClientContext& ctx,
                     const std::string& account, const std::string& code,
                     bool result) override {
    hook([&](app::CallJournal& j) { j.on_verify_otp(time, ctx, account, code, result); });
  }
  void on_retrieve_booking(sim::SimTime time, const app::ClientContext& ctx,
                           const std::string& pnr,
                           const app::Application::BookingView& result) override {
    hook([&](app::CallJournal& j) { j.on_retrieve_booking(time, ctx, pnr, result); });
  }
  void on_boarding_sms(sim::SimTime time, const app::ClientContext& ctx, const std::string& pnr,
                       const sms::PhoneNumber& number,
                       const app::BoardingSmsResult& result) override {
    hook([&](app::CallJournal& j) { j.on_boarding_sms(time, ctx, pnr, number, result); });
  }
  void on_boarding_email(sim::SimTime time, const app::ClientContext& ctx,
                         const std::string& pnr, app::CallStatus result) override {
    hook([&](app::CallJournal& j) { j.on_boarding_email(time, ctx, pnr, result); });
  }

 private:
  template <typename Forward>
  void hook(Forward&& forward) {
    if (inner_ == nullptr) {
      probe_.call_done(now_ns());
      return;
    }
    const std::int64_t t0 = now_ns();
    forward(*inner_);
    probe_.ingest(t0, now_ns());
  }

  LiveProbe& probe_;
  app::CallJournal* inner_;
};

scenario::EnvConfig env_config(LiveKind kind, std::uint64_t seed,
                               std::uint64_t trace_sample_every) {
  scenario::EnvConfig config;
  config.seed = seed;
  config.application.trace.sample_every = trace_sample_every;
  // Legitimate traffic as calibrated for the repo's case-study benches, so
  // the attack sits inside the same legitimate volume as there.
  if (kind == LiveKind::Doi) {
    // Airline A (bench/fig1_nip_distribution): holds last hours before
    // payment (§IV-A).
    config.application.inventory.hold_duration = sim::hours(4);
    config.legit.booking_sessions_per_hour = 25;
    config.legit.browse_sessions_per_hour = 8;
    config.legit.otp_logins_per_hour = 6;
  } else {
    // Airline D (bench/exp_sms_pumping): booking volume large enough that
    // the pump is a surge of tens of percent on boarding-pass SMS, plus the
    // per-booking SMS cap (§V).
    config.legit.booking_sessions_per_hour = 150;
    config.legit.p_boarding_sms = 0.5;
    config.application.boarding.sms_per_booking_cap = 400;
  }
  return config;
}

mitigate::ControllerConfig controller_config(LiveKind kind) {
  mitigate::ControllerConfig config;
  if (kind == LiveKind::Doi) {
    // Fingerprint blocking drives the bot's rotation; the NiP cap is imposed
    // on the Fig. 1 timeline instead of by the controller.
    config.impose_nip_cap = false;
  } else {
    config.block_flagged_fingerprints = false;
    config.block_artifact_fingerprints = true;
    // The path-level monitor, at bench/exp_sms_pumping's limit. As in the
    // paper's vulnerable configuration it trips but keeps the SMS feature, so
    // the ring pumps for the whole window.
    config.sms.path_daily_limit = 1600;
  }
  return config;
}

// §V rate limits, one per key kind the rule engine supports.
void add_rate_limits(mitigate::RuleEngine& engine) {
  using mitigate::RateKey;
  engine.add_rate_limit({"global", std::nullopt, RateKey::Global, 1'000'000, sim::kHour});
  engine.add_rate_limit({"hold-per-ip", web::Endpoint::HoldReservation, RateKey::ByIp, 30,
                         sim::kHour});
  engine.add_rate_limit({"per-session", std::nullopt, RateKey::BySession, 300, sim::kHour});
  engine.add_rate_limit({"hold-per-fp", web::Endpoint::HoldReservation, RateKey::ByFingerprint,
                         60, sim::kHour});
  engine.add_rate_limit({"sms-per-booking", web::Endpoint::BoardingPassSms,
                         RateKey::ByBookingRef, 15, sim::kHour});
}

// One platform instance: everything a batch needs, wired before the first
// simulated event.
struct LivePlatform {
  LivePlatform(LiveKind kind, const Timeline& timeline, const scenario::EnvConfig& config,
               LiveProbe* probe)
      : kind(kind), timeline(timeline), probe(probe) {
    env = std::make_unique<scenario::Env>(config);
    // Sized to the booking demand so legitimate traffic never sells out.
    const int capacity = 180;
    const int fleet = std::max(24, scenario::Env::fleet_size_for(
                                       config.legit.booking_sessions_per_hour, timeline.end,
                                       capacity));
    env->add_flights("A", fleet, capacity, timeline.end + sim::days(14));
    add_rate_limits(env->engine);
    controller = std::make_unique<mitigate::MitigationController>(env->app, env->engine,
                                                                  controller_config(kind));
    if (kind == LiveKind::Doi) {
      attack::SeatSpinConfig bot_config;
      bot_config.target = env->app.add_flight("A", 777, capacity, timeline.end + sim::days(1));
      bot_config.initial_nip = 6;
      bot = std::make_unique<attack::SeatSpinBot>(env->app, env->actors, env->residential,
                                                  env->population, bot_config,
                                                  env->rng.fork("seat-spin-bot"));
      graph = std::make_unique<detect::graph::EntityGraph>();
      ingest = std::make_unique<detect::graph::GraphIngest>(*graph);
    } else {
      attack::SmsPumpConfig pump_config;
      pump_config.stop_at = timeline.end;
      pump_config.mean_request_gap = sim::minutes(3);  // as bench/exp_sms_pumping
      pump = std::make_unique<attack::SmsPumpBot>(env->app, env->actors, env->residential,
                                                  env->population, env->tariffs, pump_config,
                                                  env->rng.fork("sms-pump"));
    }
    if (probe != nullptr) {
      policy = std::make_unique<TimedPolicy>(env->engine, *probe);
      env->app.set_policy(policy.get());
      journal = std::make_unique<ProbeJournal>(*probe, nullptr);
      env->app.set_journal(journal.get());
      if (ingest) tap = std::make_unique<ProbeJournal>(*probe, ingest.get());
    }
    if (tap) {
      env->app.set_tap(tap.get());
    } else if (ingest) {
      env->app.set_tap(ingest.get());
    }
    invariant::register_platform_invariants(invariants, env->app, &env->engine);
    if (graph) invariant::register_graph_invariants(invariants, *graph, &env->app);
    schedule();
  }

  void schedule() {
    sim::Simulation& sim = env->sim;
    env->legit->start(timeline.end);
    sim.schedule_at(timeline.attack_start, [this] {
      if (bot) {
        controller->fit_nip_baseline(0, timeline.attack_start);
        bot->start();
      }
      if (pump) pump->start();
    });
    if (kind == LiveKind::Doi) {
      sim.schedule_at(timeline.cap_at, [this] { env->app.inventory().set_max_nip(4); });
    }
    schedule_housekeeping(sim::kHour);
  }

  // Hourly: release expired holds, run the SOC sweep once the attack window
  // opened, then check every platform invariant.
  void schedule_housekeeping(sim::SimTime at) {
    if (at > timeline.end) return;
    env->sim.schedule_at(at, [this, at] {
      const std::int64_t t0 = probe ? now_ns() : 0;
      env->apply_expiry_sweep();
      const std::int64_t t1 = probe ? now_ns() : 0;
      if (probe) probe->expiry_sweep(t0, t1);
      if (at > timeline.attack_start) {
        controller->sweep();
        const std::int64_t t2 = probe ? now_ns() : 0;
        if (probe) probe->controller_sweep(t1, t2);
      }
      const std::int64_t t3 = probe ? now_ns() : 0;
      (void)invariants.check_all(at);
      if (probe) probe->invariant_check(t3, now_ns());
      schedule_housekeeping(at + sim::kHour);
    });
  }

  LiveKind kind;
  Timeline timeline;
  LiveProbe* probe;
  std::unique_ptr<scenario::Env> env;
  std::unique_ptr<mitigate::MitigationController> controller;
  std::unique_ptr<attack::SeatSpinBot> bot;
  std::unique_ptr<attack::SmsPumpBot> pump;
  std::unique_ptr<detect::graph::EntityGraph> graph;
  std::unique_ptr<detect::graph::GraphIngest> ingest;
  std::unique_ptr<TimedPolicy> policy;
  std::unique_ptr<ProbeJournal> journal;
  std::unique_ptr<ProbeJournal> tap;
  invariant::InvariantRegistry invariants;
};

// Drains every event up to `end`. Traced: one Simulation::step() per event,
// bracketed by the probe.
void drain(sim::Simulation& sim, sim::SimTime end, LiveProbe* probe) {
  if (probe != nullptr) {
    sim::EventQueue& queue = sim.queue();
    while (!queue.empty() && queue.next_time() <= end) {
      probe->begin_event(now_ns());
      sim.step();
      probe->end_event(now_ns(), sim.pending_events());
    }
  }
  sim.run_until(end);
}

bool denied(int status_code) {
  return status_code == 401 || status_code == 403 || status_code == 429 || status_code == 503;
}

struct Batch {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t requests = 0;
  std::uint64_t denied_requests = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t legit_calls = 0;
  std::uint64_t legit_denied = 0;
  std::uint64_t abuse_calls = 0;
  std::uint64_t abuse_served = 0;
  std::uint64_t weblog_digest = 0;
  std::uint64_t metrics_digest = 0;
  std::uint64_t holds = 0;
  std::uint64_t holds_expired = 0;
  std::uint64_t sms_sent = 0;
  std::uint64_t sms_retries = 0;
  std::uint64_t sms_rejected = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t actions = 0;
  std::uint64_t graph_nodes = 0;
  std::uint64_t graph_edges = 0;
  std::uint64_t invariant_checks = 0;
  std::vector<std::string> problems;
  std::string shape;  // the shape facts checked, for the report
};

Batch run_batch(LiveKind kind, std::uint64_t seed, std::uint64_t trace_sample_every,
                LiveProbe* probe) {
  const Timeline timeline = timeline_for(kind);
  Batch batch;
  const std::int64_t start = now_ns();
  LivePlatform p(kind, timeline, env_config(kind, seed, trace_sample_every), probe);
  const std::int64_t first_event = now_ns();
  drain(p.env->sim, timeline.end, probe);
  const std::int64_t done = now_ns();
  batch.setup_s = seconds_between(start, first_event);
  batch.wall_s = seconds_between(first_event, done);

  app::Application& app = p.env->app;
  (void)p.invariants.check_all(timeline.end);
  for (const auto& v : p.invariants.violations()) {
    batch.problems.push_back("invariant " + v.render());
  }
  batch.invariant_checks = p.invariants.checks_run();
  batch.events = p.env->sim.fired_events();
  const auto stats = app.stats();
  batch.requests = stats.requests;
  batch.overloaded = stats.shed;
  batch.denied_requests = stats.blocked + stats.challenged + stats.rate_limited + stats.shed;

  for (const web::HttpRequest& r : app.weblog().all()) {
    if (p.env->actors.abuser(r.actor)) {
      ++batch.abuse_calls;
      if (!denied(r.status_code)) ++batch.abuse_served;
    } else {
      ++batch.legit_calls;
      if (denied(r.status_code)) ++batch.legit_denied;
    }
  }

  std::ostringstream weblog;
  (void)app::export_weblog_csv(weblog, app.weblog().all());
  batch.weblog_digest = util::fnv1a(weblog.str());
  std::ostringstream metrics;
  app.metrics().snapshot().write_csv(metrics);
  batch.metrics_digest = util::fnv1a(metrics.str());

  const auto& inventory = app.inventory().stats();
  batch.holds = inventory.holds_created;
  batch.holds_expired = inventory.expired;
  const auto& gateway = app.sms_gateway();
  batch.sms_sent = gateway.delivered_count();
  batch.sms_retries = gateway.retries_enqueued();
  batch.sms_rejected = gateway.rejected_count();
  batch.sweeps = p.controller->sweeps();
  batch.actions = p.controller->actions().size();
  if (p.graph) {
    batch.graph_nodes = p.graph->node_count();
    batch.graph_edges = p.graph->edge_count();
  }

  std::ostringstream shape;
  if (kind == LiveKind::Doi) {
    const auto& reservations = app.inventory().reservations();
    const auto baseline =
        detect::NipAnomalyDetector::window_histogram(reservations, 0, timeline.attack_start);
    const auto attack = detect::NipAnomalyDetector::window_histogram(
        reservations, timeline.attack_start, timeline.cap_at);
    const auto capped =
        detect::NipAnomalyDetector::window_histogram(reservations, timeline.cap_at, timeline.end);
    std::uint64_t above_cap = 0;
    for (int nip = 5; nip <= 9; ++nip) above_cap += capped.count(nip);
    shape << "NiP=6 share: baseline " << baseline.fraction(6) << ", attack day "
          << attack.fraction(6) << "; holds above the cap after it: " << above_cap
          << "; bot rotations: " << p.bot->evasion().identity().history().size();
    if (!(attack.fraction(6) > 3 * baseline.fraction(6) && attack.fraction(6) > 0.05)) {
      batch.problems.push_back("shape: no NiP=6 spike in the attack day");
    }
    if (above_cap != 0) batch.problems.push_back("shape: holds above the NiP cap after it");
  } else {
    std::set<net::CountryCode> countries;
    for (const auto& record : app.sms_gateway().log()) {
      if (record.delivered && record.actor == p.pump->actor()) {
        countries.insert(record.destination.country);
      }
    }
    const auto& pump = p.pump->stats();
    shape << "destination countries hit by the ring: " << countries.size() << " of "
          << p.pump->target_countries().size() << "; pump requests: " << pump.pump_requests
          << ", delivered " << pump.sms_delivered << ", tickets " << pump.tickets_bought
          << (pump.gave_up ? ", gave up" : "");
    if (countries.size() < 35 || countries.size() > 42) {
      batch.problems.push_back("shape: the ring hit " + std::to_string(countries.size()) +
                               " destination countries, expected about 42");
    }
  }
  batch.shape = shape.str();
  return batch;
}

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

const char* workload_name(LiveKind kind) {
  return kind == LiveKind::Doi ? "doi_live" : "sms_pump_live";
}

void check_same_output(const Batch& first, const Batch& other, RunResult& result,
                       const char* what) {
  result.expect(first.weblog_digest == other.weblog_digest &&
                    first.metrics_digest == other.metrics_digest,
                std::string("determinism: ") + what + " changed the weblog or metrics bytes");
}

RunResult run_live(LiveKind kind, const Options& options) {
  RunResult result;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  const std::uint64_t default_sampling = app::ApplicationConfig{}.trace.sample_every;
  const char* name = workload_name(kind);

  if (!options.trace) {
    const int inputs = options.smoke ? 1 : kInputs;
    // Set-up is a fraction of a millisecond, so its median comes from many
    // assemblies; they also warm the allocator for the batches.
    std::vector<double> setups;
    const Timeline timeline = timeline_for(kind);
    for (int i = 0; i < (options.smoke ? 4 : 100); ++i) {
      const std::int64_t t0 = now_ns();
      const auto p = std::make_unique<LivePlatform>(
          kind, timeline, env_config(kind, input_seed(options.seed, i % inputs), default_sampling),
          nullptr);
      setups.push_back(seconds_between(t0, now_ns()));
    }
    release_free_memory();
    // Inputs round-robin: every input runs at least once, then batches repeat
    // while measured time remains.
    std::vector<std::vector<Batch>> batches(static_cast<std::size_t>(inputs));
    PooledRate requests(inputs, Reading::Median);
    PooledRate events(inputs, Reading::Median);
    int n = 0;
    do {
      const int k = n++ % inputs;
      Batch b = run_batch(kind, input_seed(options.seed, k), default_sampling, nullptr);
      setups.push_back(b.setup_s);
      requests.add(k, static_cast<double>(b.requests), b.wall_s);
      events.add(k, static_cast<double>(b.events), b.wall_s);
      batches[static_cast<std::size_t>(k)].push_back(std::move(b));
      release_free_memory();
    } while (n < inputs || (!options.smoke && now_ns() < deadline));

    Batch total;  // the first batch of every input, pooled
    for (int k = 0; k < inputs; ++k) {
      const auto& runs = batches[static_cast<std::size_t>(k)];
      const Batch& first = runs.front();
      for (const Batch& b : runs) check_same_output(first, b, result, "a repeated batch");
      for (const std::string& problem : first.problems) result.problems.push_back(problem);
      const std::string input = "/input" + std::to_string(k);
      std::cout << "shape " << name << input << ": " << first.shape << "\n";
      print_digest("weblog_csv" + input, first.weblog_digest);
      print_digest("metrics_csv" + input, first.metrics_digest);
      total.requests += first.requests;
      total.events += first.events;
      total.overloaded += first.overloaded;
      total.legit_calls += first.legit_calls;
      total.legit_denied += first.legit_denied;
      total.abuse_calls += first.abuse_calls;
      total.abuse_served += first.abuse_served;
    }
    result.attempted = total.requests;
    result.failed = total.overloaded;
    result.add("setup_s", median(setups), "s");
    result.add("requests_per_s", requests.rate(), "1/s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::cout << "info " << name << ": " << n << " batches over " << inputs << " inputs, "
              << total.requests << " facade calls / " << total.events
              << " events per pass over the inputs\n"
              << "metric events_per_s " << events.rate() << " 1/s\n"
              << "metric legit_denied_pct " << pct(total.legit_denied, total.legit_calls)
              << " %\n"
              << "metric abuse_served_pct " << pct(total.abuse_served, total.abuse_calls)
              << " %\n"
              << "metric failed_pct " << pct(result.failed, result.attempted) << " %\n";
    return result;
  }

  // Traced: input 0 only. Untraced and traced batches alternate so the
  // overhead compares neighbours; doi_live adds a batch with platform
  // tracing off for the cost of observability.
  const std::uint64_t seed = input_seed(options.seed, 0);
  std::vector<Batch> plain;
  std::vector<Batch> traced;
  std::vector<Batch> no_obs;
  SpanLog spans(100'000);
  LiveProbe probe(spans);
  do {
    plain.push_back(run_batch(kind, seed, default_sampling, nullptr));
    traced.push_back(run_batch(kind, seed, default_sampling, &probe));
    if (kind == LiveKind::Doi) no_obs.push_back(run_batch(kind, seed, 0, nullptr));
  } while (!options.smoke && now_ns() < deadline);

  const Batch& first = plain.front();
  for (const Batch& b : plain) check_same_output(first, b, result, "a repeated batch");
  for (const Batch& b : traced) check_same_output(first, b, result, "tracing");
  for (const std::string& problem : first.problems) result.problems.push_back(problem);
  std::cout << "shape " << name << "/input0: " << first.shape << "\n";
  print_digest("weblog_csv/input0", first.weblog_digest);
  print_digest("metrics_csv/input0", first.metrics_digest);
  result.attempted = first.requests;
  result.failed = first.overloaded;

  auto wall_of = [](const std::vector<Batch>& batches) {
    std::vector<double> walls;
    for (const Batch& b : batches) walls.push_back(b.wall_s);
    return median(walls);
  };

  // --- Per-layer metrics (traced run) ---------------------------------------
  const Batch& t = traced.front();
  const double traced_wall = wall_of(traced);
  const double plain_wall = wall_of(plain);
  double wall_ns_total = 0.0;
  for (const Batch& b : traced) wall_ns_total += b.wall_s * 1e9;
  const auto share = [wall_ns_total](std::int64_t ns) {
    return wall_ns_total > 0 ? static_cast<double>(ns) / wall_ns_total : 0.0;
  };

  result.add("sim.events", static_cast<double>(t.events), "count");
  result.add("sim.event_p50_ns", probe.events_.percentile(0.50), "ns");
  result.add("sim.event_p99_ns", probe.events_.percentile(0.99), "ns");
  result.add("sim.queue_peak", static_cast<double>(probe.queue_peak_), "count");
  result.add("sim.events_per_s", static_cast<double>(t.events) / traced_wall, "1/s");

  result.add("app.calls", static_cast<double>(t.requests), "count");
  result.add("app.call_p50_ns", probe.single_call_events_.percentile(0.50), "ns");
  result.add("app.call_p99_ns", probe.single_call_events_.percentile(0.99), "ns");
  result.add("app.call_samples", static_cast<double>(probe.single_call_events_.count()),
             "count");
  result.add("app.denied_share",
             t.requests == 0 ? 0.0
                             : static_cast<double>(t.denied_requests) /
                                   static_cast<double>(t.requests),
             "ratio");
  result.add("app.weblog_rows", static_cast<double>(t.requests), "count");
  result.add("app.legit_denied_pct", pct(t.legit_denied, t.legit_calls), "%");
  result.add("app.abuse_served_pct", pct(t.abuse_served, t.abuse_calls), "%");

  result.add("mitigate.evaluate_ns", probe.evaluate_.mean(), "ns");
  result.add("mitigate.evaluate_p99_ns", probe.evaluate_.percentile(0.99), "ns");
  result.add("mitigate.evaluate_share", share(probe.evaluate_.total()), "ratio");
  result.add("mitigate.sweep_ns", probe.sweep_.mean(), "ns");
  result.add("mitigate.sweeps", static_cast<double>(t.sweeps), "count");
  result.add("mitigate.sweep_p99_ns", probe.sweep_.percentile(0.99), "ns");
  result.add("mitigate.actions", static_cast<double>(t.actions), "count");

  result.add("airline.expiry_sweep_ns", probe.expiry_.mean(), "ns");
  result.add("airline.expiry_sweeps",
             static_cast<double>(probe.expiry_.count() / traced.size()), "count");
  result.add("airline.holds", static_cast<double>(t.holds), "count");
  result.add("airline.holds_expired", static_cast<double>(t.holds_expired), "count");

  result.add("sms.sent", static_cast<double>(t.sms_sent), "count");
  result.add("sms.retries", static_cast<double>(t.sms_retries), "count");
  result.add("sms.rejected", static_cast<double>(t.sms_rejected), "count");

  result.add("graph.ingest_ns", probe.ingest_.mean(), "ns");
  result.add("graph.ingest_p99_ns", probe.ingest_.percentile(0.99), "ns");
  result.add("graph.ingest_share", share(probe.ingest_.total()), "ratio");
  result.add("graph.nodes", static_cast<double>(t.graph_nodes), "count");
  result.add("graph.edges", static_cast<double>(t.graph_edges), "count");

  result.add("invariant.check_ns", probe.invariant_.mean(), "ns");
  result.add("invariant.checks", static_cast<double>(t.invariant_checks), "count");

  if (!no_obs.empty()) {
    const double off = wall_of(no_obs);
    result.add("obs.trace_cost_pct", 100.0 * (plain_wall - off) / off, "%");
  }
  result.add("trace.overhead_pct", 100.0 * (traced_wall - plain_wall) / plain_wall, "%");

  // Self time per layer: each span minus the child spans it contains.
  const std::int64_t events_ns = probe.events_.total();
  const std::int64_t event_children = probe.call_ns_ + probe.ingest_.total() +
                                      probe.expiry_.total() + probe.sweep_.total() +
                                      probe.invariant_.total();
  const auto unattributed = static_cast<std::int64_t>(wall_ns_total) - events_ns;
  result.add("trace.unattributed_share", share(unattributed), "ratio");
  result.add("run.failed_pct", pct(result.failed, result.attempted), "%");

  std::cout << "layers " << name << " (self time share of traced wall time):\n"
            << "  sim       " << share(events_ns - event_children) << "\n"
            << "  app       " << share(probe.call_ns_ - probe.evaluate_.total()) << "\n"
            << "  mitigate  " << share(probe.evaluate_.total() + probe.sweep_.total()) << "\n"
            << "  airline   " << share(probe.expiry_.total()) << "\n"
            << "  graph     " << share(probe.ingest_.total()) << "\n"
            << "  invariant " << share(probe.invariant_.total()) << "\n"
            << "  (none)    " << share(unattributed) << "\n";
  if (!options.trace_path.empty()) {
    result.expect(spans.write_chrome_json(options.trace_path, name),
                  "could not write the Chrome trace");
    std::cout << "chrome_trace " << options.trace_path << " (" << spans.size()
              << " spans kept, " << spans.dropped() << " dropped)\n";
  }
  return result;
}

}  // namespace

RunResult run_doi_live(const Options& options) { return run_live(LiveKind::Doi, options); }

RunResult run_sms_pump_live(const Options& options) {
  return run_live(LiveKind::SmsPump, options);
}

}  // namespace perfbench
