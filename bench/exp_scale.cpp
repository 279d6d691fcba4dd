// SCALE: the sharded engine at industrial volume (§II / PAPER.md).
//
// The paper's core claim about industrial fraud is quantitative: functional
// abuse hides inside *millions* of legitimate users, and a defense that can't
// be evaluated at that volume can't be trusted at it either. This experiment
// drives the seat-hold/pay/expiry economy (core/scenario/scale) over the
// intra-run sharded engine (sim/sharded_simulation) two ways:
//
// Shape mode (default): the determinism contract, end to end —
//   * K=1 sharded artifacts byte-identical to the serial reference engine;
//   * K=4 artifacts byte-identical across 1/2/4 worker threads;
//   * cross-shard traffic actually exercised (messages > 0, all conserved);
//   * zero invariant violations (shard-conservation, shard-clock-alignment).
//
// Volume mode (`exp_scale --volume [--smoke]`): the engine at mega-scale —
// one million users and >= 100 million events in one K=8 run on 8 threads
// (--smoke: 50k users over 6 h, sized for sanitizer CI). The run fails on
// any invariant violation or, at full size, on missing the 100M-event floor.
// It prints events per wall second for information only; throughput is
// measured and compared by perfbench (`python3 perfbench/run.py --workload
// scale_sharded`), which records the machine and the run-to-run spread.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/bench/options.hpp"
#include "core/scenario/scale_scenario.hpp"
#include "sim/time.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

using namespace fraudsim;

namespace {

scenario::ScaleConfig shape_config() {
  scenario::ScaleConfig cfg;
  cfg.seed = 7;
  cfg.users = 2'000;
  cfg.flights = 64;
  cfg.seats_per_flight = 16;
  cfg.horizon = sim::hours(12);
  cfg.epoch = sim::hours(1);
  cfg.hold_ttl = sim::hours(2);
  cfg.graph_sample = 8;
  return cfg;
}

bool identical(const scenario::ScaleArtifacts& a, const scenario::ScaleArtifacts& b) {
  return a.report == b.report && a.shards_csv == b.shards_csv && a.graph_csv == b.graph_csv &&
         a.state_digest == b.state_digest && a.events_fired == b.events_fired;
}

int run_shape(bool smoke) {
  auto cfg = shape_config();
  if (smoke) {
    cfg.users = 600;
    cfg.horizon = sim::hours(6);
  }
  std::cout << "SCALE shape: " << cfg.users << " users, " << cfg.flights << " flights, "
            << (cfg.horizon / sim::hours(1)) << " h horizon\n";

  const auto serial = scenario::run_scale_serial(cfg);
  auto k1_cfg = cfg;
  k1_cfg.shards = 1;
  const auto k1 = scenario::run_scale_sharded(k1_cfg);

  auto k4_cfg = cfg;
  k4_cfg.shards = 4;
  std::vector<scenario::ScaleArtifacts> k4;
  for (unsigned threads : {1u, 2u, 4u}) {
    k4_cfg.threads = threads;
    k4.push_back(scenario::run_scale_sharded(k4_cfg));
  }

  util::AsciiTable table({"run", "events", "holds", "pays", "messages", "digest"});
  const auto row = [&table](const std::string& name, const scenario::ScaleArtifacts& a) {
    table.add_row({name, std::to_string(a.events_fired), std::to_string(a.holds),
                   std::to_string(a.pays), std::to_string(a.messages_sent),
                   std::to_string(a.state_digest)});
  };
  row("serial", serial);
  row("K=1", k1);
  row("K=4 t=1", k4[0]);
  row("K=4 t=2", k4[1]);
  row("K=4 t=4", k4[2]);
  std::cout << "\n=== SCALE: sharded-engine determinism contract ===\n" << table.render() << "\n";

  bool ok = true;
  auto expect = [&ok](bool cond, const std::string& what) {
    if (!cond) {
      std::cout << "SHAPE VIOLATION: " << what << "\n";
      ok = false;
    }
  };
  expect(serial.holds > 0 && serial.pays > 0 && serial.expiries > 0,
         "the economy actually operated");
  expect(identical(serial, k1), "K=1 byte-identical to the serial engine");
  expect(k4[0].messages_sent > 0, "K=4 exercises cross-shard traffic");
  expect(k4[0].messages_sent == k4[0].messages_delivered,
         "every cross-shard message delivered (conservation)");
  expect(identical(k4[0], k4[1]) && identical(k4[0], k4[2]),
         "K=4 byte-identical across 1/2/4 worker threads");
  for (const auto& a : k4) {
    expect(a.invariant_violations == 0, "no shard invariant violations");
  }
  std::cout << (ok ? "SCALE SHAPE: OK\n" : "SCALE SHAPE: FAILED\n");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Volume mode.

int run_volume(bool smoke) {
  scenario::ScaleConfig cfg;
  cfg.seed = 2026;
  if (smoke) {
    // CI-sized (runs under sanitizers): tens of thousands of users.
    cfg.users = 50'000;
    cfg.flights = 1'024;
    cfg.seats_per_flight = 32;
    cfg.horizon = sim::hours(6);
    cfg.graph_sample = 32;
  } else {
    // The headline configuration: 1M users, >= 100M events in one run.
    cfg.users = 1'000'000;
    cfg.flights = 20'000;
    cfg.seats_per_flight = 64;
    cfg.horizon = sim::days(1);
    cfg.graph_sample = 64;
  }
  cfg.epoch = sim::hours(1);
  cfg.hold_ttl = sim::hours(2);
  cfg.shards = 8;
  cfg.threads = 8;

  std::cout << "SCALE volume: " << cfg.users << " users, " << cfg.flights << " flights, "
            << (cfg.horizon / sim::hours(1)) << " h, K=" << cfg.shards << " threads="
            << cfg.threads << "\n";
  const auto t0 = std::chrono::steady_clock::now();
  const auto art = scenario::run_scale_sharded(cfg);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count()) /
      1e6;
  std::cout << "  events fired    " << art.events_fired << "\n"
            << "  messages sent   " << art.messages_sent << "\n"
            << "  wall seconds    " << util::format_fixed(seconds, 2) << "\n"
            << "  events/s        "
            << util::format_general(static_cast<double>(art.events_fired) / seconds, 6)
            << " (informational)\n";

  bool ok = true;
  if (art.invariant_violations != 0) {
    std::cout << "VOLUME VIOLATION: invariant violations at scale:\n" << art.invariant_report;
    ok = false;
  }
  if (!smoke && art.events_fired < 100'000'000) {
    std::cout << "VOLUME VIOLATION: " << art.events_fired << " events < the 100M floor\n";
    ok = false;
  }
  std::cout << (ok ? "SCALE VOLUME: OK\n" : "SCALE VOLUME: FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::Options::parse(argc, argv);
  for (const auto& arg : options.positional) {
    if (arg == "--volume") return run_volume(options.smoke);
  }
  return run_shape(options.smoke);
}
