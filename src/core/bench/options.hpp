// Unified bench/example CLI + environment configuration.
//
// Every bench/exp_* and examples/* main used to hand-roll the same getenv
// blocks (FRAUDSIM_BENCH_SMOKE, FRAUDSIM_FLEET_THREADS)
// plus ad-hoc argv parsing. bench::Options parses both in one place with one
// precedence rule: environment first, argv flags override. Unrecognised
// arguments are passed through in `positional` so tool-specific flags keep
// working.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fraudsim::bench {

struct Options {
  // FRAUDSIM_BENCH_SMOKE / --smoke: benches shrink to CI-sized workloads.
  bool smoke = false;
  // FRAUDSIM_FLEET_THREADS / --threads N: fleet worker count (0 = auto).
  unsigned fleet_threads = 0;
  // --seed N: base RNG seed for tools that accept one.
  std::optional<std::uint64_t> seed;
  // --out-dir PATH (also --out PATH): artifact output directory.
  std::string out_dir;
  // Arguments this parser did not consume, in order (argv[0] excluded).
  std::vector<std::string> positional;

  // True when the env var is set to anything but "" or "0" — the repo-wide
  // truthiness convention for FRAUDSIM_* toggles.
  [[nodiscard]] static bool env_flag(const char* name);
  // Parsed positive integer from the env var; fallback when unset/invalid.
  [[nodiscard]] static std::uint64_t env_u64(const char* name, std::uint64_t fallback);

  // Environment only (no argv) — for mains with their own flag handling.
  [[nodiscard]] static Options from_env();
  // Environment, then argv overrides. Never exits: unknown flags land in
  // `positional` for the caller to judge.
  [[nodiscard]] static Options parse(int argc, char** argv);
};

}  // namespace fraudsim::bench
