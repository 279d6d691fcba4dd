// Fleet runner: N independent (config-variant × seed) simulations on a
// worker pool, reduced into per-variant cross-seed aggregates.
//
// Determinism contract (see DESIGN.md §2.5):
//   * Every job runs on its own worker thread against its own Env/Rng — the
//     simulations share no mutable state, and the per-thread fault registry
//     (`fault::FaultRegistry::global()`) is reset to a clean slate before
//     each job, so a job observes the same world no matter which worker picks
//     it up.
//   * Workers pull jobs from a shared cursor (completion order is
//     scheduling-dependent), but results land in slots indexed by job
//     position and the reduction folds them in JOB ORDER after all workers
//     join. The report — and any artifact a job writes — is therefore
//     byte-identical for 1, 4, or 64 threads.
//   * The runner itself never reads the wall clock and never consumes
//     randomness; all it adds over a serial loop is the thread pool.
//
// Reduction semantics: per-run scalar observations become one sample each in
// the variant's cross-seed distribution (mean ± stddev, p50/p95); within-run
// RunningStats shards merge via `RunningStats::merge`; confusion tallies sum
// cell-wise; metrics snapshots fold through `obs::MetricsRegistry::merge`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/obs/metrics.hpp"
#include "util/stats.hpp"

namespace fraudsim::scenario {

// One unit of fleet work: a named configuration variant at one seed. `index`
// is filled by the runner with the job's position in the submitted list, so
// a run function can derive per-job artifact paths without global state.
struct FleetJob {
  std::string variant;
  std::uint64_t seed = 0;
  std::size_t index = 0;
};

// What one run reports back to the reduction. Everything is optional: a
// bench that only cares about scalar outcomes leaves the rest empty.
struct FleetRunResult {
  // Scalar per-run outcomes ("bot_holds", "legit_blocked", ...): each becomes
  // one sample in the variant's cross-seed distribution.
  std::map<std::string, double> observations;
  // Within-run distributions (e.g. per-request latency stats): merged across
  // the variant's runs with RunningStats::merge.
  std::map<std::string, util::RunningStats> series;
  // Classification tallies vs ground truth; merged cell-wise.
  util::ConfusionCounts confusion;
  // Telemetry shard (a registry snapshot); merged via MetricsRegistry::merge.
  obs::MetricsSnapshot metrics;

  // Lossless byte round-trip so a completed job's result can be persisted
  // (fleet crash recovery: resume re-runs only jobs without a valid shard).
  void checkpoint(util::ByteWriter& out) const;
  void restore(util::ByteReader& in);
};

using FleetRunFn = std::function<FleetRunResult(const FleetJob&)>;

// Cross-seed aggregate for one variant, in job order.
struct FleetVariantAggregate {
  std::string variant;
  std::vector<std::uint64_t> seeds;  // in job order

  struct Observation {
    util::RunningStats stats;
    std::vector<double> samples;  // in job order, for exact percentiles
    [[nodiscard]] double p50() const;
    [[nodiscard]] double p95() const;
  };
  std::map<std::string, Observation> observations;
  std::map<std::string, util::RunningStats> series;
  util::ConfusionCounts confusion;
  obs::MetricsSnapshot metrics;  // all shards merged

  [[nodiscard]] std::size_t runs() const { return seeds.size(); }
};

struct FleetReport {
  unsigned threads = 1;   // workers actually used
  std::size_t jobs = 0;
  std::size_t resumed = 0;  // jobs satisfied from the resume hook, not re-run
  std::vector<FleetVariantAggregate> variants;  // first-appearance order

  [[nodiscard]] const FleetVariantAggregate* find(std::string_view variant) const;

  // ASCII table: variant | metric | runs | mean | stddev | p50 | p95, then a
  // classification table for variants with confusion tallies. Byte-stable.
  [[nodiscard]] std::string render_table(const std::string& title = "Fleet sweep") const;
  // CSV: variant,metric,runs,mean,stddev,p50,p95,min,max. Derived
  // classification scores appear as confusion.* rows (degenerate
  // distributions: every stat column carries the score).
  void write_csv(std::ostream& out) const;
};

struct FleetOptions {
  // 0 = hardware concurrency (resolve_fleet_threads). The count is clamped
  // to the number of jobs.
  unsigned threads = 0;
  // Crash-recovery hook, consulted per job before running it: return the
  // persisted result of an earlier completed execution (job skipped, counted
  // in report.resumed) or nullopt to run the job normally. Runs on the worker
  // thread after the fault-registry reset; the reduction folds resumed and
  // fresh results identically, so a resumed fleet reduces byte-identically
  // to an uninterrupted one.
  std::function<std::optional<FleetRunResult>(const FleetJob&)> resume;
};

// Thread-count resolution: the explicit request, else hardware concurrency
// (1 when unknown). Bench and example mains take the request from
// bench::Options (FRAUDSIM_FLEET_THREADS / --threads).
[[nodiscard]] unsigned resolve_fleet_threads(unsigned requested = 0);

// Runs every job and reduces. Jobs always execute on spawned worker threads
// (even with 1 thread), so thread_local state is pristine per worker and the
// serial path exercises the exact code the parallel path does. If a run
// function throws, the runner finishes outstanding jobs, then rethrows the
// job-order-first exception.
[[nodiscard]] FleetReport run_fleet(const std::vector<FleetJob>& jobs, const FleetRunFn& run,
                                    FleetOptions options = {});

// Convenience: the same variant list crossed with a seed list, variants
// grouped together in variant-major order.
[[nodiscard]] std::vector<FleetJob> cross_jobs(const std::vector<std::string>& variants,
                                               const std::vector<std::uint64_t>& seeds);

}  // namespace fraudsim::scenario
