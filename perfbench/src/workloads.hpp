// The benchmark's four workloads. Each assembles its platform from the
// library's public pieces, runs a fixed, seed-derived input as fast as it can
// for about `seconds` of measured wall time, checks its outputs, and returns
// the metrics it measured:
//   * untraced (trace == false): the end-to-end metrics;
//   * traced   (trace == true):  the per-layer metrics, plus a Chrome
//     trace-event file of the spans written to `trace_path`.
#pragma once

#include <cstdint>
#include <string>

#include "measure.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Smoke size, for the self-test: a single repetition, on a smaller input
  // where the shape checks allow one (soc_detect, scale_sharded).
  bool smoke = false;
  std::string trace_path;  // Chrome trace output (traced runs only)
};

[[nodiscard]] RunResult run_doi_live(const Options& options);
[[nodiscard]] RunResult run_sms_pump_live(const Options& options);
[[nodiscard]] RunResult run_soc_detect(const Options& options);
[[nodiscard]] RunResult run_scale_sharded(const Options& options);

// Prints "digest <what> <16 hex digits>" for byte-identity diffs across commits.
void print_digest(const std::string& what, std::uint64_t digest);

}  // namespace perfbench
