// Mega-scale quick-start: the seat-hold economy on the sharded engine.
//
// Runs the scale scenario (core/scenario/scale) on 4 shards, checkpointing
// into DIR/run.journal, prints the run report, then resumes from the
// journal's newest Checkpoint frame and compares state digests — the resumed
// run must land on exactly the same bytes.
//
//   ./examples/scale_run [--seed N] [--out-dir DIR] [--threads N]
//
// --threads sets the epoch-drain worker count (default 4); it never changes
// a byte of output.
#include <cstdint>
#include <filesystem>
#include <iostream>

#include "core/bench/options.hpp"
#include "core/scenario/scale_scenario.hpp"
#include "sim/time.hpp"

using namespace fraudsim;

int main(int argc, char** argv) {
  const auto options = bench::Options::parse(argc, argv);

  scenario::ScaleConfig cfg;
  cfg.seed = options.seed.value_or(7);
  cfg.users = 20'000;
  cfg.flights = 512;
  cfg.seats_per_flight = 32;
  cfg.horizon = sim::hours(12);
  cfg.epoch = sim::hours(1);
  cfg.hold_ttl = sim::hours(2);
  cfg.graph_sample = 8;
  cfg.shards = 4;
  cfg.threads = options.fleet_threads != 0 ? options.fleet_threads : 4;
  cfg.checkpoint_every = 3;
  cfg.out_dir = options.out_dir.empty() ? "scale-run-out" : options.out_dir;
  std::filesystem::create_directories(cfg.out_dir);

  std::cout << "Running " << cfg.users << " users / " << cfg.flights << " flights on "
            << cfg.shards << " shards (" << cfg.threads << " threads), checkpointing every "
            << cfg.checkpoint_every << " epochs into " << cfg.out_dir << " ...\n\n";
  const auto art = scenario::run_scale_sharded(cfg);
  std::cout << art.report << "\n";

  std::cout << "Resuming from the newest checkpoint frame in run.journal ...\n";
  const auto resumed = scenario::resume_scale_sharded(cfg);
  const bool match = resumed.state_digest == art.state_digest &&
                     resumed.report == art.report && resumed.shards_csv == art.shards_csv;
  std::cout << "resume digest " << resumed.state_digest << " vs " << art.state_digest << " — "
            << (match ? "byte-identical" : "MISMATCH") << "\n";
  return match ? 0 : 1;
}
