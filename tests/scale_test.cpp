// Determinism contract of the mega-scale scenario (core/scenario/scale):
//   * K=1 sharded artifacts are byte-identical to the serial reference;
//   * fixed-K artifacts are byte-identical across worker-thread counts;
//   * a run resumed from the Checkpoint frames of its run.journal is
//     byte-identical to an uninterrupted one, including when the newest frame
//     is torn (resume falls back to the previous frame) and when the journal
//     or its newest frame is unusable (resume degrades to a fresh run);
//   * an injected shard.exchange fault charges retries without changing a
//     single behavioural byte.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "core/fault/crash.hpp"
#include "core/fault/fault.hpp"
#include "core/journal/journal.hpp"
#include "core/scenario/scale_scenario.hpp"
#include "sim/time.hpp"
#include "util/archive.hpp"
#include "util/hash.hpp"

namespace fraudsim {
namespace {

scenario::ScaleConfig small_config() {
  scenario::ScaleConfig cfg;
  cfg.seed = 42;
  cfg.users = 600;
  cfg.flights = 24;
  cfg.seats_per_flight = 8;
  cfg.horizon = sim::hours(8);
  cfg.epoch = sim::hours(1);
  cfg.think_min = sim::minutes(2);
  cfg.think_spread = sim::minutes(20);
  cfg.hold_ttl = sim::hours(2);
  cfg.pay_delay = sim::minutes(10);
  cfg.pay_percent = 60;
  cfg.graph_sample = 4;
  return cfg;
}

void expect_identical(const scenario::ScaleArtifacts& a, const scenario::ScaleArtifacts& b) {
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.shards_csv, b.shards_csv);
  EXPECT_EQ(a.graph_csv, b.graph_csv);
  EXPECT_EQ(a.state_digest, b.state_digest);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.activities, b.activities);
  EXPECT_EQ(a.holds, b.holds);
  EXPECT_EQ(a.denials, b.denials);
  EXPECT_EQ(a.pays, b.pays);
  EXPECT_EQ(a.pay_late, b.pay_late);
  EXPECT_EQ(a.expiries, b.expiries);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.graph_events, b.graph_events);
  EXPECT_EQ(a.invariant_report, b.invariant_report);
}

std::string journal_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "run.journal").string();
}

// Every Checkpoint frame of <dir>/run.journal, in file order.
std::vector<journal::Record> checkpoint_frames(const std::string& dir) {
  journal::JournalReader reader;
  std::vector<journal::Record> frames;
  if (!reader.open(journal_path(dir)).is_ok()) return frames;
  for (const auto& r : reader.records()) {
    if (r.kind == journal::RecordKind::Checkpoint) frames.push_back(r);
  }
  return frames;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<sim::SimTime> checkpoint_times(const std::string& dir) {
  std::vector<sim::SimTime> times;
  for (const auto& r : checkpoint_frames(dir)) times.push_back(r.time);
  return times;
}

// Replaces <dir>/run.journal with one whose only Checkpoint frame carries
// `fields`: CRC-intact, so only the frame decoder stands between these bytes
// and the resumed run.
void write_single_frame_journal(const std::string& dir, const scenario::ScaleConfig& cfg,
                                sim::SimTime time, const std::string& fields) {
  journal::JournalWriter writer;
  ASSERT_TRUE(writer.open(journal_path(dir), cfg.seed, cfg.digest()).is_ok());
  util::ByteWriter body;
  body.raw(fields);
  ASSERT_TRUE(writer.append(journal::RecordKind::Checkpoint, time, body).is_ok());
  ASSERT_TRUE(writer.close().is_ok());
}

class ScopedDir {
 public:
  explicit ScopedDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(path_);
  }
  ~ScopedDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Scale, SerialRunExercisesTheWholeEconomy) {
  const auto art = scenario::run_scale_serial(small_config());
  EXPECT_GT(art.activities, 0u);
  EXPECT_GT(art.holds, 0u);
  EXPECT_GT(art.pays, 0u);
  EXPECT_GT(art.expiries, 0u);  // the 40% no-intent holds age out
  EXPECT_GT(art.denials, 0u);   // 600 users vs 192 seats oversubscribes
  EXPECT_GT(art.graph_events, 0u);
  EXPECT_EQ(art.barriers, 8u);
  EXPECT_EQ(art.messages_sent, 0u);
  EXPECT_EQ(art.invariant_violations, 0u);
  EXPECT_NE(art.report.find("all invariants held"), std::string::npos);
  EXPECT_NE(art.graph_csv.find("component,"), std::string::npos);
}

TEST(Scale, ShardedK1IsByteIdenticalToSerial) {
  const auto cfg = small_config();
  const auto serial = scenario::run_scale_serial(cfg);
  auto sharded_cfg = cfg;
  sharded_cfg.shards = 1;
  const auto sharded = scenario::run_scale_sharded(sharded_cfg);
  expect_identical(serial, sharded);
}

TEST(Scale, FixedKIsByteIdenticalAcrossThreadCounts) {
  auto cfg = small_config();
  cfg.shards = 4;
  cfg.threads = 1;
  const auto one = scenario::run_scale_sharded(cfg);
  // Cross-shard traffic must actually be exercised for this to mean much.
  EXPECT_GT(one.messages_sent, 0u);
  EXPECT_EQ(one.messages_sent, one.messages_delivered);
  EXPECT_EQ(one.invariant_violations, 0u);

  cfg.threads = 2;
  expect_identical(one, scenario::run_scale_sharded(cfg));
  cfg.threads = 4;
  expect_identical(one, scenario::run_scale_sharded(cfg));
}

TEST(Scale, ShardedRunIsRerunStable) {
  auto cfg = small_config();
  cfg.shards = 3;
  const auto a = scenario::run_scale_sharded(cfg);
  const auto b = scenario::run_scale_sharded(cfg);
  expect_identical(a, b);
}

TEST(Scale, ResumeFromCheckpointsMatchesUninterruptedRun) {
  ScopedDir dir("fraudsim_scale_resume");
  auto cfg = small_config();
  cfg.shards = 3;
  cfg.checkpoint_every = 2;
  cfg.out_dir = dir.path();

  // Uninterrupted run: one journal, one Checkpoint frame per checkpoint
  // barrier (2, 4, 6), and no per-shard files.
  const auto full = scenario::run_scale_sharded(cfg);
  EXPECT_EQ(checkpoint_times(dir.path()),
            (std::vector<sim::SimTime>{sim::hours(2), sim::hours(4), sim::hours(6)}));
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir.path()) / "shards"));

  // Resume picks barrier 6 and re-runs only the last two epochs; its own
  // journal opens with that anchor.
  const auto resumed = scenario::resume_scale_sharded(cfg);
  expect_identical(full, resumed);
  EXPECT_EQ(checkpoint_times(dir.path()), (std::vector<sim::SimTime>{sim::hours(6)}));
}

TEST(Scale, ResumeReinstatesPendingPayDecisions) {
  // Regression: pay decisions scheduled before a checkpoint barrier but firing
  // after it must survive a resume. A pay_delay close to the epoch length
  // guarantees nearly every grant leaves one pending at every barrier, and an
  // odd checkpoint cadence lands the resume point on such a barrier.
  ScopedDir dir("fraudsim_scale_pending_pay");
  auto cfg = small_config();
  cfg.pay_delay = sim::minutes(45);
  cfg.shards = 4;
  cfg.checkpoint_every = 3;
  cfg.out_dir = dir.path();
  const auto full = scenario::run_scale_sharded(cfg);
  EXPECT_GT(full.pays, 0u);
  const auto resumed = scenario::resume_scale_sharded(cfg);
  expect_identical(full, resumed);
}

TEST(Scale, ResumeRollsBackWhenTheNewestFrameIsTorn) {
  ScopedDir dir("fraudsim_scale_rollback");
  auto cfg = small_config();
  cfg.shards = 3;
  cfg.checkpoint_every = 2;
  cfg.out_dir = dir.path();
  const auto full = scenario::run_scale_sharded(cfg);

  // Tear the barrier-6 frame at the tail: the reader drops it, and the
  // newest intact restore point is barrier 4.
  const auto path = journal_path(dir.path());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 8);
  const auto resumed = scenario::resume_scale_sharded(cfg);
  expect_identical(full, resumed);
  EXPECT_EQ(checkpoint_times(dir.path()),
            (std::vector<sim::SimTime>{sim::hours(4), sim::hours(6)}));
}

TEST(Scale, ResumeFromAnUndecodableFrameRunsFresh) {
  // A frame whose CRC holds but whose body does not decode must not leave a
  // half-restored engine behind: the resume is a fresh run.
  ScopedDir dir("fraudsim_scale_undecodable");
  auto cfg = small_config();
  cfg.shards = 3;
  cfg.checkpoint_every = 2;
  cfg.out_dir = dir.path();
  const auto full = scenario::run_scale_sharded(cfg);

  const std::string uninterrupted = slurp(journal_path(dir.path()));
  const auto frames = checkpoint_frames(dir.path());
  ASSERT_EQ(frames.size(), 3u);
  const std::string& newest = frames.back().fields;
  write_single_frame_journal(dir.path(), cfg, frames.back().time,
                             newest.substr(0, newest.size() - 8));
  const auto resumed = scenario::resume_scale_sharded(cfg);
  expect_identical(full, resumed);
  // A fresh run rewrites the uninterrupted run's journal byte for byte.
  EXPECT_EQ(slurp(journal_path(dir.path())), uninterrupted);
}

TEST(Scale, ResumeAfterACrashMidCheckpointUsesTheFirstFrame) {
  ScopedDir dir("fraudsim_scale_crash");
  auto cfg = small_config();
  cfg.shards = 3;
  cfg.checkpoint_every = 2;
  cfg.out_dir = dir.path();
  const auto full = scenario::run_scale_sharded(cfg);
  const std::string uninterrupted = slurp(journal_path(dir.path()));

  // Kill a rerun while it appends its second frame (barrier 4).
  auto& registry = fault::FaultRegistry::global();
  registry.arm(fault::kCrashJournalCheckpoint, fault::FaultScenario::crash_at_hit(2));
  bool crashed = false;
  try {
    (void)scenario::run_scale_sharded(cfg);
  } catch (const fault::SimCrash&) {
    crashed = true;
  }
  registry.reset();
  ASSERT_TRUE(crashed);
  EXPECT_EQ(checkpoint_times(dir.path()), (std::vector<sim::SimTime>{sim::hours(2)}));

  // The resumed run's journal is the anchor, then barriers 4 and 6: the
  // uninterrupted journal again, byte for byte.
  const auto resumed = scenario::resume_scale_sharded(cfg);
  expect_identical(full, resumed);
  EXPECT_EQ(slurp(journal_path(dir.path())), uninterrupted);
}

TEST(Scale, ResumeFromAJournalCorruptMidFileRunsFresh) {
  ScopedDir dir("fraudsim_scale_midfile");
  auto cfg = small_config();
  cfg.shards = 3;
  cfg.checkpoint_every = 2;
  cfg.out_dir = dir.path();
  const auto full = scenario::run_scale_sharded(cfg);

  // Flip the last byte of the barrier-2 frame (the header frame and the
  // frames after it stay intact): a CRC-bad frame before the tail is damage
  // the reader refuses, so there is no restore point at all.
  const auto frames = checkpoint_frames(dir.path());
  ASSERT_EQ(frames.size(), 3u);
  const auto path = journal_path(dir.path());
  const std::string uninterrupted = slurp(path);
  std::string bytes = uninterrupted;
  const std::size_t header_frame = 8 + 1 + 8 + 4 + 8 + 8;  // len, crc, kind, time, fields
  const std::size_t first_frame_end = 4 + header_frame + 8 + 1 + 8 + frames[0].fields.size();
  bytes[first_frame_end - 1] ^= 0x5A;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  const auto resumed = scenario::resume_scale_sharded(cfg);
  expect_identical(full, resumed);
  // A fresh run rewrites the uninterrupted run's journal byte for byte.
  EXPECT_EQ(slurp(journal_path(dir.path())), uninterrupted);
}

// Byte offsets of the first shard's slice in a Checkpoint frame's fields.
// The layout is the one checkpoint_world writes: the engine blob (u32 K, i64
// clock, K x (sent, fired), delivered, dropped, retries, barriers), then per
// shard seven u64 counters, the hold table (37 bytes a hold), the free list
// (u32 each), pending pays (24 bytes each), owned users (44 bytes each) and
// owned flights (16 bytes each), each list after its u64 count.
struct FirstShard {
  std::size_t hold_count = 0;
  std::size_t holds = 0;
  std::size_t frees = 0;
  std::size_t pays = 0;
  std::size_t users = 0;
  std::size_t flights = 0;
  std::uint64_t n_holds = 0;
  std::uint64_t n_frees = 0;
  std::uint64_t n_pays = 0;
  std::uint64_t n_users = 0;
  std::uint64_t n_flights = 0;
};

constexpr std::size_t kHoldBytes = 37;

FirstShard map_first_shard(const std::string& fields) {
  util::ByteReader in(fields);
  const auto pos = [&] { return fields.size() - in.remaining(); };
  const auto skip = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) (void)in.u8();
  };
  FirstShard m;
  const std::uint32_t k = in.u32();
  skip(8 + 16 * static_cast<std::uint64_t>(k) + 4 * 8 + 7 * 8);
  m.hold_count = pos();
  m.n_holds = in.u64();
  m.holds = pos();
  skip(m.n_holds * kHoldBytes);
  m.n_frees = in.u64();
  m.frees = pos();
  skip(m.n_frees * 4);
  m.n_pays = in.u64();
  m.pays = pos();
  skip(m.n_pays * 24);
  m.n_users = in.u64();
  m.users = pos();
  skip(m.n_users * 44);
  m.n_flights = in.u64();
  m.flights = pos();
  EXPECT_TRUE(in.ok());
  return m;
}

std::uint64_t get_u64(const std::string& s, std::size_t at) {
  util::ByteReader in(std::string_view(s).substr(at, 8));
  return in.u64();
}

void put_le(std::string& s, std::size_t at, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) s[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

TEST(Scale, HostileFrameDefectsEndInAFreshRun) {
  ScopedDir dir("fraudsim_scale_hostile");
  auto cfg = small_config();
  // Room on every flight and a pay delay close to the epoch, so pay
  // decisions are pending at the barriers.
  cfg.seats_per_flight = 400;
  cfg.pay_delay = sim::minutes(45);
  cfg.shards = 3;
  cfg.checkpoint_every = 2;
  cfg.out_dir = dir.path();
  const auto full = scenario::run_scale_sharded(cfg);
  const std::string uninterrupted = slurp(journal_path(dir.path()));
  const auto frames = checkpoint_frames(dir.path());
  ASSERT_EQ(frames.size(), 3u);
  const std::string intact = frames.front().fields;
  const FirstShard m = map_first_shard(intact);
  ASSERT_GT(m.n_frees, 0u);
  ASSERT_GT(m.n_pays, 0u);
  ASSERT_GT(m.n_flights, 0u);
  std::size_t live_hold = m.holds;
  while (intact[live_hold] == 0) live_hold += kHoldBytes;
  ASSERT_LT(live_hold, m.holds + m.n_holds * kHoldBytes);
  ASSERT_GT(m.n_users, 0u);
  // Ids past the population and the inventory that shard 0 would own
  // (ShardedTransport keys users as 2u and flights as 2f+1), so only the
  // range checks stand between them and the tables.
  const auto owned_by_shard_0 = [](std::uint64_t key) { return util::splitmix64(key) % 3 == 0; };
  std::uint64_t stray_user = cfg.users;
  while (!owned_by_shard_0(2 * stray_user)) ++stray_user;
  std::uint64_t stray_flight = cfg.flights;
  while (!owned_by_shard_0(2 * stray_flight + 1)) ++stray_flight;
  const std::size_t last_user = m.users + 44 * (m.n_users - 1);
  const std::size_t last_flight = m.flights + 16 * (m.n_flights - 1);
  // A flight shard 0 does not own: the smallest id missing from its list.
  std::uint64_t foreign_flight = 0;
  for (std::uint64_t i = 0; i < m.n_flights && get_u64(intact, m.flights + 16 * i) == i; ++i) {
    foreign_flight = i + 1;
  }

  struct Mutation {
    const char* name;
    std::function<void(std::string&)> apply;
  };
  const std::vector<Mutation> mutations = {
      {"engine built for another K", [](std::string& f) { put_le(f, 0, 4, 4); }},
      {"hold count of 2^40",
       [&](std::string& f) { put_le(f, m.hold_count, std::uint64_t{1} << 40, 8); }},
      {"live hold for a user past the population",
       [&](std::string& f) { put_le(f, live_hold + 5, stray_user, 8); }},
      {"live hold on a flight past the inventory",
       [&](std::string& f) { put_le(f, live_hold + 13, stray_flight, 8); }},
      {"live hold on a flight another shard owns",
       [&](std::string& f) { put_le(f, live_hold + 13, foreign_flight, 8); }},
      {"free-list index past the hold table",
       [&](std::string& f) { put_le(f, m.frees, m.n_holds, 4); }},
      {"pending pay naming a hold past the table",
       [&](std::string& f) {
         const std::uint64_t packed = get_u64(f, m.pays);
         put_le(f, m.pays, packed | (std::uint64_t{0xFFFFF} << 20), 8);
       }},
      {"owned user past the population",
       [&](std::string& f) { put_le(f, last_user, stray_user, 8); }},
      {"owned flight past the inventory",
       [&](std::string& f) { put_le(f, last_flight, stray_flight, 8); }},
  };
  for (const auto& mutation : mutations) {
    SCOPED_TRACE(mutation.name);
    std::string fields = intact;
    mutation.apply(fields);
    write_single_frame_journal(dir.path(), cfg, frames.front().time, fields);
    const auto t0 = std::chrono::steady_clock::now();
    const auto resumed = scenario::resume_scale_sharded(cfg);
    const std::chrono::duration<double> took = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(took.count(), 1.0);
    expect_identical(full, resumed);
    // A fresh run rewrites the uninterrupted journal; a run anchored on the
    // mutated frame would have copied it in as its first frame.
    EXPECT_EQ(slurp(journal_path(dir.path())), uninterrupted);
  }
}

TEST(Scale, ConfigsPastThePackingLimitsAreRefused) {
  auto cfg = small_config();
  cfg.shards = 5000;  // a shard index no longer fits its 12-bit field
  const auto too_many_shards = scenario::run_scale_sharded(cfg);
  EXPECT_GT(too_many_shards.invariant_violations, 0u);
  EXPECT_NE(too_many_shards.report.find("4096-shard packing limit"), std::string::npos)
      << too_many_shards.report;
  EXPECT_EQ(too_many_shards.events_fired, 0u);

  // 2^20 + 1 seats on one shard: one more hold than the hold-index field holds.
  auto seats = small_config();
  seats.flights = 1;
  seats.seats_per_flight = (1U << 20) + 1;
  for (const auto& art : {scenario::run_scale_serial(seats), scenario::run_scale_sharded(seats)}) {
    EXPECT_GT(art.invariant_violations, 0u);
    EXPECT_NE(art.report.find("1048576-hold packing limit"), std::string::npos) << art.report;
    EXPECT_EQ(art.events_fired, 0u);
  }
}

TEST(Scale, AFailedCheckpointWriteIsReportedAndChangesNothingElse) {
  ScopedDir dir("fraudsim_scale_unwritable");
  std::filesystem::create_directories(dir.path());
  const auto not_a_dir = std::filesystem::path(dir.path()) / "file";
  std::ofstream(not_a_dir) << "x";
  auto cfg = small_config();
  cfg.shards = 2;
  const auto clean = scenario::run_scale_sharded(cfg);
  cfg.checkpoint_every = 2;
  cfg.out_dir = not_a_dir.string();
  const auto art = scenario::run_scale_sharded(cfg);
  EXPECT_GT(art.invariant_violations, 0u);
  EXPECT_NE(art.invariant_report.find("checkpoint-journal"), std::string::npos)
      << art.invariant_report;
  EXPECT_EQ(art.state_digest, clean.state_digest);
  EXPECT_EQ(art.shards_csv, clean.shards_csv);
  EXPECT_EQ(art.graph_csv, clean.graph_csv);
}

TEST(Scale, ResumeWithNoCheckpointsFallsBackToFreshRun) {
  ScopedDir dir("fraudsim_scale_fresh");
  auto cfg = small_config();
  cfg.shards = 2;
  cfg.checkpoint_every = 2;
  cfg.out_dir = dir.path();
  const auto fresh = scenario::run_scale_sharded(cfg);
  // Same config, empty directory: resume must degrade to a fresh run.
  ScopedDir other("fraudsim_scale_fresh_other");
  auto cfg2 = cfg;
  cfg2.out_dir = other.path();
  const auto resumed = scenario::resume_scale_sharded(cfg2);
  expect_identical(fresh, resumed);
}

TEST(Scale, ResumeIgnoresCheckpointsFromADifferentConfig) {
  ScopedDir dir("fraudsim_scale_mismatch");
  auto cfg = small_config();
  cfg.shards = 2;
  cfg.checkpoint_every = 2;
  cfg.out_dir = dir.path();
  (void)scenario::run_scale_sharded(cfg);

  auto changed = cfg;
  changed.seed = 43;  // different behaviour → manifests must not match
  const auto resumed = scenario::resume_scale_sharded(changed);
  auto baseline_cfg = changed;
  baseline_cfg.out_dir.clear();
  baseline_cfg.checkpoint_every = 0;
  const auto baseline = scenario::run_scale_sharded(baseline_cfg);
  EXPECT_EQ(resumed.state_digest, baseline.state_digest);
  EXPECT_EQ(resumed.shards_csv, baseline.shards_csv);
}

TEST(Scale, ExchangeFaultChargesRetriesWithoutChangingBehaviour) {
  auto cfg = small_config();
  cfg.shards = 2;
  const auto clean = scenario::run_scale_sharded(cfg);
  ASSERT_EQ(clean.exchange_retries, 0u);

  auto& point = fault::FaultRegistry::global().point("shard.exchange");
  point.arm(fault::FaultScenario::every_nth(2));
  const auto faulted = scenario::run_scale_sharded(cfg);
  point.disarm();

  EXPECT_GT(faulted.exchange_retries, 0u);
  EXPECT_EQ(faulted.invariant_violations, 0u);
  // Retries are pure accounting: every behavioural artifact is unchanged.
  EXPECT_EQ(faulted.state_digest, clean.state_digest);
  EXPECT_EQ(faulted.shards_csv, clean.shards_csv);
  EXPECT_EQ(faulted.graph_csv, clean.graph_csv);
  EXPECT_EQ(faulted.messages_sent, clean.messages_sent);
  EXPECT_EQ(faulted.messages_delivered, clean.messages_delivered);
}

}  // namespace
}  // namespace fraudsim
