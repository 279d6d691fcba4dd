// scale_sharded: the sharded engine over a population-sized user set —
// scenario::run_scale_sharded with K=4 shards on up to 4 worker threads
// (never more than the cores this process may use). It is the only workload
// that exercises epoch drains, barrier exchange and per-shard graph merges,
// and it bypasses the app layer entirely.
//
// The engine has no hooks for outside timing, so each run is one span. The
// traced run adds the thread-scaling curve (same config at 1 and 2 threads,
// plus the serial engine) and checks that the state digest is the same at 4,
// 2 and 1 threads.
#include <algorithm>
#include <iostream>

#include "core/scenario/scale_scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace fraudsim;

scenario::ScaleConfig scale_config(std::uint64_t seed, bool smoke) {
  scenario::ScaleConfig cfg;
  cfg.seed = seed;
  cfg.users = smoke ? 10'000 : 50'000;
  cfg.flights = smoke ? 256 : 2'048;
  cfg.seats_per_flight = 64;
  cfg.horizon = smoke ? sim::hours(4) : sim::hours(8);
  cfg.epoch = sim::hours(1);
  cfg.hold_ttl = sim::hours(2);
  cfg.graph_sample = 64;
  cfg.shards = 4;
  cfg.threads = std::min(4u, available_cores());
  return cfg;
}

struct Timed {
  scenario::ScaleArtifacts art;
  double wall_s = 0.0;
};

Timed timed_run(const scenario::ScaleConfig& cfg, bool serial, SpanLog* spans,
                const char* span_name) {
  Timed t;
  const std::int64_t t0 = now_ns();
  t.art = serial ? scenario::run_scale_serial(cfg) : scenario::run_scale_sharded(cfg);
  const std::int64_t t1 = now_ns();
  t.wall_s = seconds_between(t0, t1);
  if (spans != nullptr) spans->record(spans->reserve(), span_name, t0, t1);
  return t;
}

}  // namespace

RunResult run_scale_sharded(const Options& options) {
  RunResult result;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  const scenario::ScaleConfig base = scale_config(input_seed(options.seed, 0), options.smoke);
  std::cout << "info scale_sharded: " << base.users << " users, " << base.flights
            << " flights, " << base.horizon / sim::kHour << " h, K=" << base.shards
            << ", threads=" << base.threads << "\n";

  auto check = [&result](const scenario::ScaleArtifacts& art, const char* what) {
    result.expect(art.messages_sent == art.messages_delivered,
                  std::string(what) + ": messages sent != messages delivered");
    result.expect(art.invariant_violations == 0,
                  std::string(what) + ": invariant violations: " + art.invariant_report);
  };
  auto same_state = [&result](const scenario::ScaleArtifacts& first,
                              const scenario::ScaleArtifacts& art, const char* what) {
    result.expect(art.state_digest == first.state_digest,
                  std::string(what) + ": state digest differs from the first K=4 run");
  };
  auto count_failures = [&result](const scenario::ScaleArtifacts& art) {
    result.attempted += art.messages_sent;
    result.failed += art.exchange_retries + (art.messages_sent - art.messages_delivered);
  };

  if (!options.trace) {
    const int inputs = options.smoke ? 1 : kInputs;
    // Set-up: the same engine and population assembled for an empty horizon,
    // many times for a stable median.
    std::vector<double> setups;
    for (int i = 0; i < (options.smoke ? 4 : 48); ++i) {
      scenario::ScaleConfig empty =
          scale_config(input_seed(options.seed, i % inputs), options.smoke);
      empty.horizon = 0;
      setups.push_back(timed_run(empty, false, nullptr, nullptr).wall_s);
    }
    std::vector<scenario::ScaleArtifacts> first(static_cast<std::size_t>(inputs));
    PooledRate events(inputs, Reading::Median);
    PooledRate requests(inputs, Reading::Median);
    int n = 0;
    do {
      const int k = n++ % inputs;
      const Timed run =
          timed_run(scale_config(input_seed(options.seed, k), options.smoke), false, nullptr,
                    nullptr);
      check(run.art, "K=4 run");
      events.add(k, static_cast<double>(run.art.events_fired), run.wall_s);
      requests.add(k, static_cast<double>(run.art.activities), run.wall_s);
      release_free_memory();
      if (n <= inputs) {
        first[static_cast<std::size_t>(k)] = run.art;
        count_failures(run.art);
        print_digest("scale_state/input" + std::to_string(k), run.art.state_digest);
      } else {
        same_state(first[static_cast<std::size_t>(k)], run.art, "repeated K=4 run");
      }
    } while (n < inputs || (!options.smoke && now_ns() < deadline));

    std::uint64_t total_events = 0;
    std::uint64_t total_requests = 0;
    for (const auto& art : first) {
      total_events += art.events_fired;
      total_requests += art.activities;
    }
    result.add("setup_s", median(setups), "s");
    result.add("requests_per_s", requests.rate(), "1/s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    std::cout << "info scale_sharded: " << n << " runs over " << inputs << " inputs, "
              << total_events << " events / " << total_requests
              << " user requests per pass over the inputs\n"
              << "metric events_per_s " << events.rate() << " 1/s\n"
              << "metric failed_pct "
              << (result.attempted == 0 ? 0.0
                                        : 100.0 * static_cast<double>(result.failed) /
                                              static_cast<double>(result.attempted))
              << " %\n";
    return result;
  }

  // Traced: input 0 only. Each round runs the K=4 config untraced and traced
  // (one span each), then at 2 and 1 threads and on the serial engine; the
  // state digest must be the same at 4, 2 and 1 threads.
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  PooledRate t4_rate(1, Reading::Median);
  PooledRate t2_rate(1, Reading::Median);
  PooledRate t1_rate(1, Reading::Median);
  PooledRate serial_rate(1, Reading::Median);
  SpanLog spans(10'000);
  double round_ns = 0.0;
  double covered_ns = 0.0;
  scenario::ScaleArtifacts first;
  scenario::ScaleConfig two = base;
  two.threads = std::min(2u, base.threads);
  scenario::ScaleConfig one = base;
  one.threads = 1;
  int rounds = 0;
  do {
    const Timed plain = timed_run(base, false, nullptr, nullptr);
    if (rounds++ == 0) {
      first = plain.art;
      count_failures(plain.art);
      print_digest("scale_state/input0", plain.art.state_digest);
    }
    const std::int64_t round_start = now_ns();
    const Timed traced = timed_run(base, false, &spans, "scale.run.t4");
    const Timed t2 = timed_run(two, false, &spans, "scale.run.t2");
    const Timed t1 = timed_run(one, false, &spans, "scale.run.t1");
    const Timed serial = timed_run(base, true, &spans, "scale.run.serial");
    round_ns += static_cast<double>(now_ns() - round_start);
    covered_ns += (traced.wall_s + t2.wall_s + t1.wall_s + serial.wall_s) * 1e9;
    for (const Timed* t : {&plain, &traced, &t2, &t1}) {
      check(t->art, "K=4 run");
      same_state(first, t->art, "K=4 at another thread count");
    }
    result.expect(serial.art.invariant_violations == 0, "serial run: invariant violations");
    plain_walls.push_back(plain.wall_s);
    traced_walls.push_back(traced.wall_s);
    const auto events = static_cast<double>(first.events_fired);
    t4_rate.add(0, events, plain.wall_s);
    t2_rate.add(0, events, t2.wall_s);
    t1_rate.add(0, events, t1.wall_s);
    serial_rate.add(0, static_cast<double>(serial.art.events_fired), serial.wall_s);
  } while (!options.smoke && now_ns() < deadline);
  const double failed_pct = result.attempted == 0
                                ? 0.0
                                : 100.0 * static_cast<double>(result.failed) /
                                      static_cast<double>(result.attempted);

  const double t4 = t4_rate.rate();
  const double t1 = t1_rate.rate();
  const double serial = serial_rate.rate();
  result.add("sim.events", static_cast<double>(first.events_fired), "count");
  result.add("sim.events_per_s", t4, "1/s");
  result.add("scale.events", static_cast<double>(first.events_fired), "count");
  result.add("scale.messages", static_cast<double>(first.messages_sent), "count");
  result.add("scale.barriers", static_cast<double>(first.barriers), "count");
  result.add("scale.graph_events", static_cast<double>(first.graph_events), "count");
  result.add("scale.messages_per_event",
             static_cast<double>(first.messages_sent) / static_cast<double>(first.events_fired),
             "ratio");
  result.add("scale.t1_events_per_s", t1, "1/s");
  result.add("scale.t2_events_per_s", t2_rate.rate(), "1/s");
  result.add("scale.serial_events_per_s", serial, "1/s");
  result.add("scale.parallel_speedup", t4 / t1, "ratio");
  result.add("scale.shard_gain", t1 / serial, "ratio");
  result.add("trace.overhead_pct",
             100.0 * (median(traced_walls) - median(plain_walls)) / median(plain_walls), "%");
  result.add("trace.unattributed_share", round_ns > 0 ? (round_ns - covered_ns) / round_ns : 0.0,
             "ratio");
  result.add("run.failed_pct", failed_pct, "%");
  if (!options.trace_path.empty()) {
    result.expect(spans.write_chrome_json(options.trace_path, "scale_sharded"),
                  "could not write the Chrome trace");
    std::cout << "chrome_trace " << options.trace_path << " (" << spans.size()
              << " spans kept, " << spans.dropped() << " dropped)\n";
  }
  return result;
}

}  // namespace perfbench
