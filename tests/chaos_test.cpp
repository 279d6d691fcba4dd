// Chaos subsystem: deterministic schedule generation, byte-stable repro
// artifacts, the job runner's three oracles (invariants, crash recovery,
// replay consistency), ddmin shrinking of failing schedules, and the
// chaos-off byte-identity contract.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/chaos/chaos.hpp"
#include "core/chaos/runner.hpp"
#include "core/fault/crash.hpp"
#include "core/fault/fault.hpp"
#include "core/scenario/replay_harness.hpp"
#include "util/archive.hpp"
#include "util/hash.hpp"

namespace fraudsim {
namespace {

namespace fs = std::filesystem;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::global().reset();
    dir_ = fs::path(testing::TempDir()) /
           ("chaos-" +
            std::string(testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fault::FaultRegistry::global().reset(); }

  fs::path dir_;
};

scenario::RecordedScenarioConfig small_config(std::uint64_t seed = 4242) {
  scenario::RecordedScenarioConfig config;
  config.seed = seed;
  config.horizon = sim::hours(6);
  config.flights = 4;
  config.capacity = 40;
  config.legit.booking_sessions_per_hour = 6;
  config.legit.browse_sessions_per_hour = 4;
  config.legit.otp_logins_per_hour = 3;
  config.attacker_start = sim::hours(1);
  config.attacker_period = sim::minutes(15);
  config.controller_fit_at = sim::hours(1);
  config.controller.sweep_interval = sim::hours(1);
  config.rate_limits.push_back(mitigate::RateLimitSpec{
      "hold-per-ip", web::Endpoint::HoldReservation, mitigate::RateKey::ByIp, 20, sim::kHour});
  config.checkpoint_every = sim::hours(2);
  return config;
}

chaos::ChaosEntry error_entry(const std::string& point, fault::FaultScenario scenario) {
  chaos::ChaosEntry e;
  e.point = point;
  e.scenario = scenario;
  return e;
}

std::string schedule_bytes(const chaos::ChaosSchedule& s) {
  util::ByteWriter out;
  s.checkpoint(out);
  return out.take();
}

// --- Schedule generation -----------------------------------------------------

TEST_F(ChaosTest, GeneratorIsDeterministicPerSeed) {
  const auto config = chaos::default_generator_config(sim::hours(12));
  const auto a = chaos::generate_schedule(1234, config);
  const auto b = chaos::generate_schedule(1234, config);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(schedule_bytes(a), schedule_bytes(b));

  // Distinct seeds explore distinct plans (across a small sample at least
  // one must differ — identical draws for all five would mean a dead rng).
  bool any_differ = false;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    if (schedule_bytes(chaos::generate_schedule(seed, config)) != schedule_bytes(a)) {
      any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ);
}

TEST_F(ChaosTest, GeneratorDrawsAtMostOneCrashAndRespectsCatalogues) {
  const auto config = chaos::default_generator_config(sim::hours(12));
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto schedule = chaos::generate_schedule(seed, config);
    EXPECT_GE(static_cast<int>(schedule.entries.size()), config.min_entries);
    EXPECT_LE(static_cast<int>(schedule.entries.size()), config.max_entries);
    int crashes = 0;
    for (const auto& e : schedule.entries) {
      if (e.kind == chaos::ChaosEntry::Kind::FlashCrowd) {
        EXPECT_GT(e.to, e.from);
        EXPECT_LE(e.to, config.horizon);
        EXPECT_GE(e.intensity, 2.0);
        continue;
      }
      if (e.scenario.fault == fault::FaultKind::kCrash) ++crashes;
      EXPECT_FALSE(e.point.empty());
    }
    EXPECT_LE(crashes, 1);
  }
}

TEST_F(ChaosTest, ScheduleCheckpointRoundTrips) {
  const auto config = chaos::default_generator_config(sim::hours(12));
  const auto schedule = chaos::generate_schedule(77, config);
  const std::string bytes = schedule_bytes(schedule);
  util::ByteReader in(bytes);
  chaos::ChaosSchedule restored;
  restored.restore(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(restored.seed, schedule.seed);
  EXPECT_EQ(schedule_bytes(restored), schedule_bytes(schedule));
  EXPECT_EQ(restored.describe(), schedule.describe());
}

TEST_F(ChaosTest, ArmScheduleCanExcludeCrashEntries) {
  chaos::ChaosSchedule schedule;
  schedule.entries.push_back(
      error_entry("sms.carrier.send", fault::FaultScenario::every_nth(4)));
  schedule.entries.push_back(
      error_entry(fault::kCrashJournalFrame, fault::FaultScenario::crash_at_hit(3)));

  auto& registry = fault::FaultRegistry::global();
  chaos::arm_schedule(schedule, /*include_crash=*/true);
  EXPECT_EQ(registry.armed_count(), 2u);
  registry.reset();
  chaos::arm_schedule(schedule, /*include_crash=*/false);
  EXPECT_EQ(registry.armed_count(), 1u);
  EXPECT_FALSE(registry.point(fault::kCrashJournalFrame).armed());
  EXPECT_TRUE(schedule.arms("sms.carrier.send", fault::FaultKind::kError));
  EXPECT_FALSE(schedule.arms("sms.carrier.send", fault::FaultKind::kCrash));
}

// --- Repro artifacts ---------------------------------------------------------

TEST_F(ChaosTest, ReproFileRoundTripsAndDetectsCorruption) {
  chaos::ChaosRepro repro;
  repro.scenario_seed = 31337;
  repro.schedule = chaos::generate_schedule(9, chaos::default_generator_config(sim::hours(8)));
  const std::string path = (dir_ / "r.fsc").string();
  ASSERT_TRUE(chaos::write_chaos_repro(path, repro));

  const auto loaded = chaos::read_chaos_repro(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded.value().scenario_seed, repro.scenario_seed);
  EXPECT_EQ(schedule_bytes(loaded.value().schedule), schedule_bytes(repro.schedule));

  // Flip one payload byte: the CRC frame must refuse the file.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto corrupt = chaos::read_chaos_repro(path);
  EXPECT_FALSE(corrupt.has_value());
  EXPECT_EQ(corrupt.code(), util::ErrorCode::kJournalCorrupt);
}

TEST_F(ChaosTest, ReproDecoderRejectsHostilePayloadsBehindAValidCrc) {
  // A CRC only proves the file is what was written; these payloads are
  // framed correctly and must still be refused, without allocating for the
  // count they claim.
  chaos::ChaosSchedule one;
  one.seed = 5;
  one.entries.push_back(error_entry("x", fault::FaultScenario::always()));
  const std::string good = schedule_bytes(one);
  // Schedule layout: u64 seed, u64 entry count, then per entry u8 kind,
  // str point (u32 length + bytes), and the fault scenario's u8 kind, u8
  // fault, ...
  struct Case {
    const char* name;
    std::size_t at;
    std::uint64_t value;
    int bytes;
  };
  const std::vector<Case> cases = {
      {"entry count of 2^40", 8, std::uint64_t{1} << 40, 8},
      {"entry kind past FlashCrowd", 16, 2, 1},
      {"scenario kind past Burst", 16 + 1 + 4 + 1, 7, 1},
      {"fault kind past kLatency", 16 + 1 + 4 + 1 + 1, 3, 1},
  };
  const std::string path = (dir_ / "hostile.fsc").string();
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    std::string schedule = good;
    for (int i = 0; i < c.bytes; ++i) {
      schedule[c.at + i] = static_cast<char>((c.value >> (8 * i)) & 0xFF);
    }
    util::ByteWriter payload;
    payload.raw("FSC1");
    payload.u64(31337);
    payload.raw(schedule);
    util::ByteWriter file;
    file.raw(payload.bytes());
    file.u32(util::crc32(payload.bytes()));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << file.bytes();
    }
    const auto loaded = chaos::read_chaos_repro(path);
    EXPECT_FALSE(loaded.has_value());
    EXPECT_EQ(loaded.code(), util::ErrorCode::kJournalCorrupt);
  }
}

// --- Registry state across checkpoints ---------------------------------------

TEST_F(ChaosTest, RegistryCheckpointContinuesTheFiringSequence) {
  auto& registry = fault::FaultRegistry::global();
  registry.arm("test.seq", fault::FaultScenario::every_nth(3));
  registry.arm(fault::kCrashJournalFrame, fault::FaultScenario::crash_at_hit(2));
  auto& point = registry.point("test.seq");
  for (int i = 0; i < 4; ++i) (void)point.consult(0);

  util::ByteWriter state;
  registry.checkpoint(state);
  std::string tail_a;
  for (int i = 0; i < 6; ++i) tail_a += point.consult(0).error ? 'F' : '.';

  registry.reset();
  util::ByteReader in(state.bytes());
  registry.restore(in);
  // Crash scenarios model the external killer: a restart does not re-inherit
  // them, so the blob must restore the error schedule but not the crash.
  EXPECT_TRUE(registry.point("test.seq").armed());
  EXPECT_FALSE(registry.point(fault::kCrashJournalFrame).armed());
  std::string tail_b;
  for (int i = 0; i < 6; ++i) tail_b += registry.point("test.seq").consult(0).error ? 'F' : '.';
  EXPECT_EQ(tail_b, tail_a);
}

// --- The job runner's oracles ------------------------------------------------

TEST_F(ChaosTest, FaultedJobHoldsInvariantsAndReplaysByteIdentically) {
  chaos::ChaosJobConfig job;
  job.scenario = small_config();
  job.schedule.entries.push_back(error_entry(
      "sms.carrier.send", fault::FaultScenario::window(sim::hours(2), sim::hours(3))));
  job.schedule.entries.push_back(
      error_entry("detect.sweep.run", fault::FaultScenario::every_nth(2)));
  job.schedule.entries.push_back(
      error_entry("app.request.latency",
                  fault::FaultScenario::every_nth(5).with_latency(sim::seconds(2))));
  job.run_dir = (dir_ / "job").string();

  const auto result = chaos::run_chaos_job(job);
  EXPECT_TRUE(result.passed()) << result.error;
  EXPECT_FALSE(result.crashed);
  EXPECT_TRUE(result.replay_verified);
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_GT(result.invariant_checks, 0u);
  EXPECT_TRUE(result.violations.empty());
}

TEST_F(ChaosTest, CrashingJobRecoversAndStillPasses) {
  chaos::ChaosJobConfig job;
  job.scenario = small_config();
  job.schedule.entries.push_back(
      error_entry("sms.carrier.send", fault::FaultScenario::every_nth(3)));
  job.schedule.entries.push_back(
      error_entry(fault::kCrashJournalFrame, fault::FaultScenario::crash_at_hit(60)));
  job.run_dir = (dir_ / "job").string();

  const auto result = chaos::run_chaos_job(job);
  EXPECT_TRUE(result.crashed);
  EXPECT_TRUE(result.recovered);
  EXPECT_TRUE(result.passed()) << result.error;
  EXPECT_TRUE(result.violations.empty());
}

TEST_F(ChaosTest, FlashCrowdEntriesRideTheJobAndStayDeterministic) {
  chaos::ChaosJobConfig job;
  job.scenario = small_config();
  chaos::ChaosEntry crowd;
  crowd.kind = chaos::ChaosEntry::Kind::FlashCrowd;
  crowd.from = sim::hours(2);
  crowd.to = sim::hours(3);
  crowd.intensity = 5.0;
  job.schedule.entries.push_back(crowd);
  job.run_dir = (dir_ / "job").string();

  const auto result = chaos::run_chaos_job(job);
  EXPECT_TRUE(result.passed()) << result.error;
  EXPECT_TRUE(result.replay_verified);
}

// --- Planted bug: caught, shrunk, reproducible -------------------------------

TEST_F(ChaosTest, PlantedOversellIsCaughtShrunkAndDeterministic) {
  const auto base = small_config();
  chaos::ChaosSchedule schedule;
  schedule.seed = 5;
  // Six entries; only the sms.carrier.send + detect.sweep.run error pair
  // triggers the planted bug, so ddmin must land on exactly those two.
  schedule.entries.push_back(
      error_entry("app.request.latency",
                  fault::FaultScenario::every_nth(7).with_latency(sim::seconds(1))));
  schedule.entries.push_back(
      error_entry("otp.deliver", fault::FaultScenario::every_nth(9)));
  schedule.entries.push_back(
      error_entry("sms.carrier.send", fault::FaultScenario::every_nth(4)));
  schedule.entries.push_back(
      error_entry("fp.store.record", fault::FaultScenario::every_nth(11)));
  schedule.entries.push_back(
      error_entry("detect.sweep.run", fault::FaultScenario::every_nth(3)));
  chaos::ChaosEntry crowd;
  crowd.kind = chaos::ChaosEntry::Kind::FlashCrowd;
  crowd.from = sim::hours(1);
  crowd.to = sim::hours(2);
  crowd.intensity = 3.0;
  schedule.entries.push_back(crowd);

  const auto run_candidate = [&](const chaos::ChaosSchedule& candidate) {
    chaos::ChaosJobConfig job;
    job.scenario = base;
    job.schedule = candidate;
    job.run_dir = (dir_ / "cand").string();
    job.plant_oversell_bug = true;
    fs::remove_all(job.run_dir);
    return chaos::run_chaos_job(job);
  };

  const auto failing = run_candidate(schedule);
  EXPECT_FALSE(failing.passed());
  ASSERT_FALSE(failing.violations.empty());
  EXPECT_EQ(failing.violations.front().invariant, "seat-conservation");

  const auto minimized = chaos::shrink_schedule(
      schedule, [&](const chaos::ChaosSchedule& c) { return !run_candidate(c).passed(); });
  ASSERT_EQ(minimized.entries.size(), 2u);
  EXPECT_TRUE(minimized.arms("sms.carrier.send", fault::FaultKind::kError));
  EXPECT_TRUE(minimized.arms("detect.sweep.run", fault::FaultKind::kError));
  // The minimized reproducer re-fails deterministically, twice over.
  EXPECT_FALSE(run_candidate(minimized).passed());
  EXPECT_FALSE(run_candidate(minimized).passed());
}

// --- Chaos-off byte identity -------------------------------------------------

TEST_F(ChaosTest, ChaosOffRunsAreByteIdenticalWithAndWithoutTheOracle) {
  const auto config = small_config();
  const auto plain = scenario::baseline_run(config);

  auto observed_config = config;
  invariant::InvariantRegistry registry;
  observed_config.invariants = &registry;
  const auto observed = scenario::baseline_run(observed_config);
  EXPECT_TRUE(observed.violations.empty());
  EXPECT_GT(observed.invariant_checks, 0u);

  // Checks are pure observers at deterministic barriers: attaching the full
  // oracle must not move a single byte of any artifact.
  EXPECT_EQ(plain.metrics_csv, observed.metrics_csv);
  EXPECT_EQ(plain.weblog_csv, observed.weblog_csv);
  EXPECT_EQ(plain.soc_report, observed.soc_report);

  // And an empty chaos schedule through the full job runner is just a clean
  // recorded run: no faults, no violations, replay-verified.
  chaos::ChaosJobConfig job;
  job.scenario = config;
  job.run_dir = (dir_ / "job").string();
  const auto result = chaos::run_chaos_job(job);
  EXPECT_TRUE(result.passed()) << result.error;
  EXPECT_TRUE(result.replay_verified);
  EXPECT_EQ(result.faults_injected, 0u);
}

// --- Campaign ----------------------------------------------------------------

TEST_F(ChaosTest, SmallCampaignPassesAndReportsDeterministically) {
  chaos::ChaosCampaignConfig campaign;
  campaign.base = small_config();
  campaign.base.horizon = sim::hours(4);
  campaign.generator = chaos::default_generator_config(campaign.base.horizon);
  campaign.generator.max_entries = 3;
  campaign.schedule_seeds = {1, 2};
  campaign.scenario_seeds = {100, 200};
  campaign.work_dir = (dir_ / "campaign").string();
  campaign.threads = 2;

  const auto report = chaos::run_chaos_campaign(campaign);
  EXPECT_EQ(report.jobs, 4u);
  EXPECT_TRUE(report.all_passed()) << report.render();
  EXPECT_EQ(report.passed, 4u);
  EXPECT_GT(report.invariant_checks, 0u);
  EXPECT_NE(report.render().find("4 jobs, 4 passed"), std::string::npos);
  // Passed jobs clean up their run directories.
  EXPECT_FALSE(fs::exists(fs::path(campaign.work_dir) / "job_1_100"));
}

}  // namespace
}  // namespace fraudsim
