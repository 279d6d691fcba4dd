// Fleet runner: reduction semantics and the thread-count determinism
// contract (N workers produce byte-identical reports and artifacts to 1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bench/options.hpp"
#include "core/fault/fault.hpp"
#include "core/scenario/fleet.hpp"
#include "core/scenario/replay_harness.hpp"

namespace fraudsim::scenario {
namespace {

// Deterministic synthetic run: everything derives from (variant, seed), so
// any thread count must reduce to the same report.
FleetRunResult synthetic_run(const FleetJob& job) {
  FleetRunResult out;
  const auto seed = static_cast<double>(job.seed);
  out.observations["score"] = seed * 2.0;
  out.observations["volume"] = 100.0 - seed;
  out.series["latency"].add(seed);
  out.series["latency"].add(seed + 1.0);
  out.confusion.add(/*predicted=*/job.seed % 2 == 0, /*actual=*/true);
  return out;
}

std::string report_bytes(const FleetReport& report) {
  std::ostringstream csv;
  report.write_csv(csv);
  return report.render_table() + "\n" + csv.str();
}

TEST(FleetRunner, ReducesObservationsSeriesAndConfusionInJobOrder) {
  const auto jobs = cross_jobs({"a", "b"}, {1, 2, 3});
  FleetOptions options;
  options.threads = 2;
  const FleetReport report = run_fleet(jobs, synthetic_run, options);

  ASSERT_EQ(report.jobs, 6u);
  ASSERT_EQ(report.variants.size(), 2u);
  EXPECT_EQ(report.variants[0].variant, "a");  // first-appearance order
  EXPECT_EQ(report.variants[1].variant, "b");

  const FleetVariantAggregate* a = report.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  const auto& score = a->observations.at("score");
  EXPECT_EQ(score.stats.count(), 3u);
  EXPECT_DOUBLE_EQ(score.stats.mean(), 4.0);  // {2,4,6}
  EXPECT_EQ(score.samples, (std::vector<double>{2.0, 4.0, 6.0}));  // job order
  EXPECT_DOUBLE_EQ(score.p50(), 4.0);
  // Series shards merged: {1,2} ∪ {2,3} ∪ {3,4}.
  const auto& latency = a->series.at("latency");
  EXPECT_EQ(latency.count(), 6u);
  EXPECT_DOUBLE_EQ(latency.min(), 1.0);
  EXPECT_DOUBLE_EQ(latency.max(), 4.0);
  // Confusion summed cell-wise: seeds {1,2,3} → predictions {miss,hit,miss}.
  EXPECT_EQ(a->confusion.tp, 1u);
  EXPECT_EQ(a->confusion.fn, 2u);
  EXPECT_EQ(report.find("missing"), nullptr);
}

TEST(FleetRunner, ReportIsByteIdenticalAcrossThreadCounts) {
  const auto jobs = cross_jobs({"x", "y", "z"}, {10, 11, 12, 13});
  FleetOptions serial;
  serial.threads = 1;
  FleetOptions parallel;
  parallel.threads = 4;
  FleetReport one = run_fleet(jobs, synthetic_run, serial);
  FleetReport four = run_fleet(jobs, synthetic_run, parallel);
  EXPECT_EQ(one.threads, 1u);
  EXPECT_EQ(four.threads, 4u);
  // Normalise the only legitimate difference before comparing bytes.
  four.threads = one.threads;
  EXPECT_EQ(report_bytes(one), report_bytes(four));
}

TEST(FleetRunner, MetricsShardsMergePerVariant) {
  const auto run = [](const FleetJob& job) {
    FleetRunResult out;
    obs::MetricsRegistry registry;
    registry.counter("runs").inc();
    registry.counter("seed_sum").inc(job.seed);
    out.metrics = registry.snapshot();
    return out;
  };
  const FleetReport report = run_fleet(cross_jobs({"only"}, {5, 6, 7}), run);
  const FleetVariantAggregate* agg = report.find("only");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->metrics.counter("runs"), 3u);
  EXPECT_EQ(agg->metrics.counter("seed_sum"), 18u);
}

TEST(FleetRunner, EmptyJobListYieldsEmptyReport) {
  const FleetReport report = run_fleet({}, synthetic_run);
  EXPECT_EQ(report.jobs, 0u);
  EXPECT_TRUE(report.variants.empty());
}

TEST(FleetRunner, WorkerExceptionPropagates) {
  const auto jobs = cross_jobs({"v"}, {1, 2, 3});
  const auto run = [](const FleetJob& job) -> FleetRunResult {
    if (job.seed == 2) throw std::runtime_error("seed 2 failed");
    return {};
  };
  EXPECT_THROW((void)run_fleet(jobs, run), std::runtime_error);
}

TEST(FleetRunner, FaultRegistryIsCleanSlatePerJob) {
  // A job that arms a fault point must not leak it into whichever job the
  // same worker picks up next.
  const auto run = [](const FleetJob& job) {
    auto& registry = fault::FaultRegistry::global();
    FleetRunResult out;
    out.observations["armed_before"] =
        registry.find("fleet.test.point") != nullptr &&
                registry.point("fleet.test.point").armed()
            ? 1.0
            : 0.0;
    registry.point("fleet.test.point").arm(fault::FaultScenario::always());
    (void)job;
    return out;
  };
  FleetOptions serial;
  serial.threads = 1;  // one worker runs every job back-to-back
  const FleetReport report = run_fleet(cross_jobs({"v"}, {1, 2, 3, 4}), run, serial);
  EXPECT_EQ(report.find("v")->observations.at("armed_before").stats.max(), 0.0);
}

TEST(FleetThreads, ResolutionPrefersExplicitThenEnvThenHardware) {
  // The request comes from bench::Options: --threads over the environment.
  char prog[] = "bench";
  char flag[] = "--threads";
  char two[] = "2";
  char* argv[] = {prog, flag, two};
  ::setenv("FRAUDSIM_FLEET_THREADS", "7", 1);
  EXPECT_EQ(bench::Options::from_env().fleet_threads, 7u);
  EXPECT_EQ(bench::Options::parse(3, argv).fleet_threads, 2u);  // argv wins over env
  EXPECT_EQ(resolve_fleet_threads(bench::Options::from_env().fleet_threads), 7u);
  ::setenv("FRAUDSIM_FLEET_THREADS", "garbage", 1);
  EXPECT_EQ(bench::Options::from_env().fleet_threads, 0u);  // unparseable → no request
  ::unsetenv("FRAUDSIM_FLEET_THREADS");
  EXPECT_EQ(bench::Options::from_env().fleet_threads, 0u);

  // The library resolves only what it is handed: an explicit count, else
  // hardware concurrency — never the environment.
  EXPECT_EQ(resolve_fleet_threads(3), 3u);
  const unsigned hardware = resolve_fleet_threads(0);
  EXPECT_GE(hardware, 1u);
  ::setenv("FRAUDSIM_FLEET_THREADS", "7", 1);
  EXPECT_EQ(resolve_fleet_threads(0), hardware);
  ::unsetenv("FRAUDSIM_FLEET_THREADS");
}

TEST(FleetThreads, ThreadCountClampsToJobCount) {
  FleetOptions options;
  options.threads = 16;
  const FleetReport report = run_fleet(cross_jobs({"v"}, {1, 2}), synthetic_run, options);
  EXPECT_EQ(report.threads, 2u);
}

// The end-to-end contract: full scenario artifacts (metrics CSV, weblog CSV,
// SOC report) produced under a 4-thread fleet are byte-identical to the
// 1-thread run's.
TEST(FleetDeterminism, ScenarioArtifactsAreByteIdenticalSerialVsParallel) {
  const auto run_scenario = [](const FleetJob& job) {
    RecordedScenarioConfig config;
    config.seed = job.seed;
    config.horizon = sim::hours(2);
    config.flights = 3;
    config.capacity = 40;
    config.legit.booking_sessions_per_hour = 6;
    config.legit.browse_sessions_per_hour = 4;
    config.legit.otp_logins_per_hour = 2;
    config.attacker_start = sim::minutes(30);
    config.attacker_period = sim::minutes(10);
    config.controller_fit_at = sim::minutes(30);
    config.controller.sweep_interval = sim::minutes(30);
    config.checkpoint_every = 0;
    return config;
  };
  const auto jobs = cross_jobs({"smoke"}, {50, 51, 52, 53});

  // Artifact capture is per-slot (one writer per slot), collected after join.
  const auto collect = [&](unsigned threads) {
    std::vector<RunArtifacts> artifacts(jobs.size());
    const auto run = [&](const FleetJob& job) {
      artifacts[job.index] = baseline_run(run_scenario(job));
      FleetRunResult out;
      out.metrics = artifacts[job.index].metrics;
      out.observations["requests"] =
          static_cast<double>(artifacts[job.index].metrics.counter("app.requests"));
      return out;
    };
    FleetOptions options;
    options.threads = threads;
    FleetReport report = run_fleet(jobs, run, options);
    report.threads = 1;  // normalise for byte comparison
    return std::pair{std::move(artifacts), report_bytes(report)};
  };

  const auto [serial_artifacts, serial_report] = collect(1);
  const auto [parallel_artifacts, parallel_report] = collect(4);
  ASSERT_EQ(serial_artifacts.size(), parallel_artifacts.size());
  for (std::size_t i = 0; i < serial_artifacts.size(); ++i) {
    EXPECT_EQ(serial_artifacts[i].metrics_csv, parallel_artifacts[i].metrics_csv)
        << "metrics diverged for job " << i;
    EXPECT_EQ(serial_artifacts[i].weblog_csv, parallel_artifacts[i].weblog_csv)
        << "weblog diverged for job " << i;
    EXPECT_EQ(serial_artifacts[i].soc_report, parallel_artifacts[i].soc_report)
        << "SOC report diverged for job " << i;
  }
  EXPECT_EQ(serial_report, parallel_report);
}

}  // namespace
}  // namespace fraudsim::scenario
