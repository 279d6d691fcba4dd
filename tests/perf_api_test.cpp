// Hot-path speed campaign: the contracts behind the batched detection API
// and the arena/interned admit path.
//
//   * batched score_batch == the scalar adapter the detect.batch.run fault
//     falls back to, byte-for-byte, across seeds and epoch configs
//   * util::Arena reset/reuse semantics and allocation accounting, and the
//     exact arena traffic of one admitted request under the §V limits
//   * util::InternTable id recycling and exact-id checkpoint/restore, and
//     restore rejecting hostile frames
//   * SlidingWindowRateLimiter agrees with a string-keyed reference model on
//     every decision, tally and checkpoint byte
//   * RuleEngine rate keys equal the canonical public renderings
//   * limiter and rule-engine restore reject hostile frames
//   * histogram_percentile: single-sample buckets report one stable value
//   * PipelineView: typed stats hold the batch conservation law
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "attack/scraper.hpp"
#include "attack/seat_spin.hpp"
#include "attack/sms_pump.hpp"
#include "core/detect/detector.hpp"
#include "core/detect/pipeline.hpp"
#include "core/fault/fault.hpp"
#include "core/mitigate/rate_limit.hpp"
#include "core/mitigate/rules.hpp"
#include "core/obs/metrics.hpp"
#include "core/scenario/env.hpp"
#include "fingerprint/population.hpp"
#include "util/arena.hpp"
#include "util/archive.hpp"
#include "util/intern.hpp"
#include "util/stats.hpp"

using namespace fraudsim;

namespace {

// Renders every alert field into one diffable string — the byte-identity
// oracle for batched-vs-scalar comparisons.
std::string render_alerts(const std::vector<detect::Alert>& alerts) {
  std::ostringstream out;
  for (const auto& a : alerts) {
    out << a.time << '|' << a.detector << '|' << detect::to_string(a.severity) << '|'
        << a.explanation;
    if (a.fingerprint) out << "|fp=" << a.fingerprint->value();
    if (a.ip) out << "|ip=" << a.ip->str();
    if (a.session) out << "|s=" << a.session->value();
    if (a.pnr) out << "|pnr=" << *a.pnr;
    if (a.actor) out << "|actor=" << a.actor->value();
    out << '\n';
  }
  return out.str();
}

// A platform with mixed legit + attack traffic, so identity comparisons have
// real alerts to diff (pure legit traffic alerts on nothing — vacuously
// "identical"). A scraper, a seat-spinning DoI bot and an SMS pumper (the
// latter two configured as in bench/exp_detection_comparison) start after
// six clean hours, which serve as the NiP baseline. Env is constructed in
// place; it is not movable.
struct AlertWorld {
  static constexpr sim::SimTime kAttackStart = sim::hours(6);

  scenario::Env env;
  std::unique_ptr<attack::ScraperBot> scraper;
  std::unique_ptr<attack::SeatSpinBot> doi;
  std::unique_ptr<attack::SmsPumpBot> pump;

  AlertWorld(std::uint64_t seed, sim::SimTime horizon) : env(make_config(seed)) {
    env.add_flights("FS", 4, 150, sim::days(5));
    const auto target = env.app.add_flight("FS", 801, 100, sim::days(9));
    attack::ScraperConfig config;
    config.sessions = 3;
    config.session_gap = sim::minutes(20);
    scraper = std::make_unique<attack::ScraperBot>(env.app, env.actors, env.datacenter,
                                                   env.population, config,
                                                   env.rng.fork("scraper"));
    attack::SeatSpinConfig doi_config;
    doi_config.target = target;
    doi = std::make_unique<attack::SeatSpinBot>(env.app, env.actors, env.residential,
                                                env.population, doi_config, env.rng.fork("doi"));
    attack::SmsPumpConfig pump_config;
    pump_config.tickets_to_buy = 4;
    pump_config.mean_request_gap = sim::minutes(1);
    pump = std::make_unique<attack::SmsPumpBot>(env.app, env.actors, env.residential,
                                                env.population, env.tariffs, pump_config,
                                                env.rng.fork("pump"));
    env.start_background(horizon);
    env.sim.schedule_at(sim::minutes(10), [this] { scraper->start(); });
    env.sim.schedule_at(kAttackStart, [this] {
      doi->start();
      pump->start();
    });
    env.run_until(horizon);
  }

  static scenario::EnvConfig make_config(std::uint64_t seed) {
    scenario::EnvConfig config;
    config.seed = seed;
    return config;
  }
};

std::string checkpoint_bytes(const mitigate::SlidingWindowRateLimiter& limiter) {
  util::ByteWriter out;
  limiter.checkpoint(out);
  return out.bytes();
}

// --- Arena ------------------------------------------------------------------

TEST(Arena, CopiesFormatsAndConcatenates) {
  util::Arena arena(128);
  EXPECT_EQ(arena.copy("hello"), "hello");
  EXPECT_EQ(arena.format_u64(0), "0");
  EXPECT_EQ(arena.format_u64(18446744073709551615ull), "18446744073709551615");
  EXPECT_EQ(arena.concat("s:", arena.format_u64(42)), "s:42");
  EXPECT_EQ(arena.stats().resets, 0u);
  EXPECT_GT(arena.stats().allocations, 0u);
}

TEST(Arena, ResetReusesChunksWithoutHeapTraffic) {
  util::Arena arena(256);
  for (int warm = 0; warm < 4; ++warm) {
    for (int i = 0; i < 10; ++i) (void)arena.copy("warmup-key-material");
    arena.reset();
  }
  const std::uint64_t chunks_after_warmup = arena.stats().chunk_allocs;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 10; ++i) (void)arena.copy("steady-state-key");
    arena.reset();
  }
  // Steady state: the warmed-up arena serves every round from retained chunks.
  EXPECT_EQ(arena.stats().chunk_allocs, chunks_after_warmup);
  EXPECT_EQ(arena.stats().resets, 104u);
  EXPECT_EQ(arena.used(), 0u);
}

TEST(Arena, OversizedAllocationGetsDedicatedChunk) {
  util::Arena arena(64);
  const std::string big(1000, 'x');
  EXPECT_EQ(arena.copy(big), big);
  EXPECT_GE(arena.stats().high_water, 1000u);
}

// The admit path under the paper's §V posture: global, per-IP, per-session,
// per-fingerprint and per-booking limits all active, set high enough that
// nothing denies (a denial would stop key construction early). Sessions are
// all fresh and IPs cycle through 2048 addresses; sim time advances 64 s
// every 64 requests, so the limiter's stale-key sweep runs and ids recycle.
// Per request the global key is a literal, the IP, session and fingerprint
// keys are one arena rendering each, and a booking key without a reference
// renders the session and then prefixes it: five allocations, all inside the
// arena's first chunk, so the counts are exact rather than tolerances.
TEST(AdmitArena, FiveKeyAllocationsPerAdmitAndNoChunkAfterWarmup) {
  scenario::EnvConfig config;
  config.seed = 11;
  scenario::Env env(config);
  mitigate::RuleEngine engine(env.sim);
  constexpr std::uint32_t kNeverDeny = 1u << 30;
  engine.add_rate_limit({"global", std::nullopt, mitigate::RateKey::Global, kNeverDeny, sim::kHour});
  engine.add_rate_limit({"ip", std::nullopt, mitigate::RateKey::ByIp, kNeverDeny, sim::kHour});
  engine.add_rate_limit(
      {"session", std::nullopt, mitigate::RateKey::BySession, kNeverDeny, sim::kHour});
  engine.add_rate_limit(
      {"fp", std::nullopt, mitigate::RateKey::ByFingerprint, kNeverDeny, sim::kHour});
  engine.add_rate_limit(
      {"booking", std::nullopt, mitigate::RateKey::ByBookingRef, kNeverDeny, sim::kDay});
  engine.bind_metrics(&env.app.metrics());
  env.app.set_policy(&engine);

  app::ClientContext ctx;
  fp::derive_rendering_hashes(ctx.fingerprint);
  sim::SimTime t = 0;
  std::size_t seq = 0;
  std::size_t served = 0;
  const auto drive = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i, ++seq) {
      if (seq % 64 == 0) {
        t += sim::seconds(64);
        env.sim.run_until(t);
      }
      ctx.session = web::SessionId{seq + 1};
      ctx.ip = net::IpV4{0x10000000u + static_cast<std::uint32_t>(seq % 2048)};
      if (env.app.browse(ctx, web::Endpoint::SearchFlights, web::HttpMethod::Get) ==
          app::CallStatus::Ok) {
        ++served;
      }
    }
  };
  constexpr std::size_t kWarmup = 5'000;
  constexpr std::size_t kAdmits = 20'000;
  drive(kWarmup);
  const util::Arena::Stats before = engine.key_arena().stats();
  EXPECT_EQ(before.chunk_allocs, 1u);
  drive(kAdmits);
  const util::Arena::Stats after = engine.key_arena().stats();

  EXPECT_EQ(served, kWarmup + kAdmits);
  EXPECT_EQ(after.allocations - before.allocations, 5u * kAdmits);
  EXPECT_EQ(after.resets - before.resets, kAdmits);
  EXPECT_EQ(after.chunk_allocs, before.chunk_allocs);
}

// --- InternTable ------------------------------------------------------------

TEST(InternTable, InternsFindsAndRecyclesIds) {
  util::InternTable table;
  const auto a = table.intern("alpha");
  const auto b = table.intern("beta");
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.intern("alpha"), a);  // idempotent
  EXPECT_EQ(table.find("beta"), b);
  EXPECT_EQ(table.find("gamma"), 0u);
  EXPECT_EQ(table.str(a), "alpha");
  table.erase(a);
  EXPECT_EQ(table.find("alpha"), 0u);
  EXPECT_FALSE(table.contains(a));
  // LIFO recycling: the freed id is handed to the next new string.
  EXPECT_EQ(table.intern("gamma"), a);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.capacity(), 2u);
}

TEST(InternTable, CheckpointRestoresExactIdAssignment) {
  util::InternTable table;
  const auto a = table.intern("alpha");
  const auto b = table.intern("beta");
  const auto c = table.intern("gamma");
  table.erase(b);

  util::ByteWriter out;
  table.checkpoint(out);
  const std::string frame = out.bytes();

  util::InternTable restored;
  util::ByteReader in(frame);
  restored.restore(in);
  EXPECT_EQ(restored.find("alpha"), a);
  EXPECT_EQ(restored.find("gamma"), c);
  EXPECT_EQ(restored.find("beta"), 0u);
  // The free list came across too: the next intern reuses b's id, exactly as
  // the original table would have.
  EXPECT_EQ(restored.intern("delta"), b);
  EXPECT_EQ(table.intern("delta"), b);

  // restore -> re-checkpoint is byte-stable.
  util::InternTable round;
  util::ByteReader in2(frame);
  round.restore(in2);
  util::ByteWriter out2;
  round.checkpoint(out2);
  EXPECT_EQ(out2.bytes(), frame);
}

// Hostile restore frames: each must latch ok() false and leave the table
// empty and usable, never throw, crash or keep a broken id assignment.
struct InternSlot {
  bool live;
  std::string key;
};

std::string intern_frame(const std::vector<InternSlot>& slots,
                         const std::vector<std::uint32_t>& free_ids) {
  util::ByteWriter out;
  out.u64(slots.size());
  for (const auto& slot : slots) {
    out.boolean(slot.live);
    if (slot.live) out.str(slot.key);
  }
  out.u64(free_ids.size());
  for (const auto id : free_ids) out.u32(id);
  return out.take();
}

void expect_rejected(const std::string& frame) {
  util::InternTable table;
  util::ByteReader in(frame);
  table.restore(in);
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.intern("fresh"), 1u);
}

TEST(InternTable, RestoreAcceptsTheHandWrittenFrameLayout) {
  const std::string frame = intern_frame({{true, "a"}, {false, ""}, {true, "b"}}, {2});
  util::InternTable table;
  util::ByteReader in(frame);
  table.restore(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(table.find("b"), 3u);
  EXPECT_EQ(table.intern("c"), 2u);
}

TEST(InternTable, RestoreRejectsASlotCountBeyondTheInput) {
  util::ByteWriter out;
  out.u64(std::uint64_t{1} << 40);
  expect_rejected(out.bytes());
}

TEST(InternTable, RestoreRejectsADuplicateKey) {
  expect_rejected(intern_frame({{true, "a"}, {true, "a"}}, {}));
}

TEST(InternTable, RestoreRejectsAnOutOfRangeFreeId) {
  expect_rejected(intern_frame({}, {99}));
  expect_rejected(intern_frame({{false, ""}}, {99}));
  expect_rejected(intern_frame({{false, ""}}, {0}));
}

TEST(InternTable, RestoreRejectsAFreeIdNamingALiveSlot) {
  expect_rejected(intern_frame({{true, "a"}, {false, ""}}, {1}));
}

TEST(InternTable, RestoreRejectsARepeatedFreeId) {
  expect_rejected(intern_frame({{false, ""}, {false, ""}}, {1, 1}));
}

TEST(InternTable, RestoreRejectsAFreeListMissingAnEmptySlot) {
  expect_rejected(intern_frame({{false, ""}, {true, "a"}, {false, ""}}, {1}));
}

// --- Rate limiter -----------------------------------------------------------

// Test-local reference model of the limiter's rules, kept as plain
// string-keyed windows: the same prune (events at or before now - window
// leave), amortised sweep (at most once per window span, dropping keys whose
// newest event aged out), and limit check (denied events are not recorded).
// Its checkpoint writes the limiter's frame layout from a sorted map.
class LimiterModel {
 public:
  LimiterModel(std::uint64_t limit, sim::SimDuration window) : limit_(limit), window_(window) {}

  bool allow(sim::SimTime now, const std::string& key, std::uint64_t effective_limit) {
    if (now - last_sweep_ >= window_) {
      last_sweep_ = now;
      std::erase_if(windows_, [&](const auto& entry) {
        return entry.second.empty() || entry.second.back() <= now - window_;
      });
    }
    auto& q = windows_[key];
    prune(now, q);
    if (q.size() >= effective_limit) {
      ++denials_;
      return false;
    }
    q.push_back(now);
    return true;
  }
  bool allow(sim::SimTime now, const std::string& key) { return allow(now, key, limit_); }

  std::uint64_t current(sim::SimTime now, const std::string& key) {
    const auto it = windows_.find(key);
    if (it == windows_.end()) return 0;
    prune(now, it->second);
    if (it->second.empty()) {
      windows_.erase(it);
      return 0;
    }
    return it->second.size();
  }

  [[nodiscard]] std::uint64_t max_in_window(sim::SimTime now) const {
    std::uint64_t max = 0;
    for (const auto& [key, q] : windows_) {
      const auto live = static_cast<std::uint64_t>(
          std::count_if(q.begin(), q.end(), [&](sim::SimTime t) { return t > now - window_; }));
      max = std::max(max, live);
    }
    return max;
  }

  [[nodiscard]] std::size_t key_count() const { return windows_.size(); }
  [[nodiscard]] std::uint64_t denials() const { return denials_; }

  [[nodiscard]] std::string checkpoint() const {
    util::ByteWriter out;
    out.u64(denials_);
    out.i64(last_sweep_);
    out.u64(windows_.size());
    for (const auto& [key, q] : windows_) {
      out.str(key);
      out.u64(q.size());
      for (sim::SimTime t : q) out.i64(t);
    }
    return out.bytes();
  }

 private:
  void prune(sim::SimTime now, std::deque<sim::SimTime>& q) const {
    while (!q.empty() && q.front() <= now - window_) q.pop_front();
  }

  std::uint64_t limit_;
  sim::SimDuration window_;
  std::map<std::string, std::deque<sim::SimTime>> windows_;
  std::uint64_t denials_ = 0;
  sim::SimTime last_sweep_ = 0;
};

// Drives `steps` requests of a deterministic churny stream (a rotating hot
// set, fresh one-off keys, occasional brownout-tightened limits, time
// marching through many sweep periods) through the limiter and the model,
// asserting they agree on every observable after every step.
void drive_against_model(mitigate::SlidingWindowRateLimiter& limiter, LimiterModel& model,
                         sim::SimTime& now, int first, int steps) {
  for (int i = first; i < first + steps; ++i) {
    now += sim::seconds(40);
    const std::string key =
        i % 5 == 0 ? "fresh-" + std::to_string(i) : "k-" + std::to_string((i * 7) % 12);
    bool decided = false;
    bool expected = false;
    if (i % 7 == 0) {
      decided = limiter.allow(now, key, 2);
      expected = model.allow(now, key, 2);
    } else {
      decided = limiter.allow(now, key);
      expected = model.allow(now, key);
    }
    ASSERT_EQ(decided, expected) << "decision diverged at step " << i;
    ASSERT_EQ(limiter.denials(), model.denials()) << i;
    ASSERT_EQ(limiter.key_count(), model.key_count()) << i;
    ASSERT_EQ(limiter.max_in_window(now), model.max_in_window(now)) << i;
    // Probing a key other than the one just used exercises current()'s
    // prune-and-erase of emptied windows.
    const std::string probe = "k-" + std::to_string((i * 5) % 12);
    ASSERT_EQ(limiter.current(now, probe), model.current(now, probe)) << i;
    ASSERT_EQ(limiter.key_count(), model.key_count()) << i;
  }
}

TEST(RateLimiter, MatchesReferenceModelAndRoundTripsCheckpoints) {
  mitigate::SlidingWindowRateLimiter limiter(3, sim::kHour);
  LimiterModel model(3, sim::kHour);
  sim::SimTime now = 0;
  ASSERT_NO_FATAL_FAILURE(drive_against_model(limiter, model, now, 0, 5000));
  EXPECT_GT(limiter.denials(), 0u);

  const std::string frame = checkpoint_bytes(limiter);
  EXPECT_EQ(frame, model.checkpoint());

  // checkpoint -> restore -> checkpoint is byte-stable, and the restored
  // limiter keeps agreeing with the model.
  mitigate::SlidingWindowRateLimiter restored(3, sim::kHour);
  util::ByteReader in(frame);
  restored.restore(in);
  ASSERT_TRUE(in.exhausted());
  EXPECT_EQ(checkpoint_bytes(restored), frame);
  ASSERT_NO_FATAL_FAILURE(drive_against_model(restored, model, now, 5000, 1000));
  EXPECT_EQ(checkpoint_bytes(restored), model.checkpoint());
}

TEST(RateLimiterStores, StaleEvictionBoundsInternedKeys) {
  mitigate::SlidingWindowRateLimiter limiter(10, sim::kMinute);
  sim::SimTime now = 0;
  for (int i = 0; i < 10'000; ++i) {
    now += sim::seconds(2);
    (void)limiter.allow(now, "rotating-" + std::to_string(i));
  }
  // Only keys from the last ~window survive the amortised sweep; lifetime
  // distinct keys (10k) must not accumulate.
  EXPECT_LE(limiter.key_count(), 100u);
}

// --- RuleEngine rate keys ---------------------------------------------------

// Every RateKey renders to the canonical public string of the request field
// it keys on, so limiter state (and therefore checkpoint key bytes) is keyed
// exactly by ip.str(), session.str(), fp_hash.str(), the booking ref, or
// "s:" + session.str() when the ref is absent.
TEST(RuleEngineKeys, ArenaKeysEqualCanonicalRenderings) {
  web::HttpRequest request;
  request.ip = net::IpV4{0xC0A80A2Bu};
  // Multi-digit session and full-width fingerprint hash: decimal renderings
  // longer than the small-string buffer.
  request.session = web::SessionId{9'876'543'210'123ull};
  request.fp_hash = fp::FpHash{0xF00000000000002Aull};
  request.endpoint = web::Endpoint::BoardingPassSms;
  web::HttpRequest no_ref = request;
  request.booking_ref = "PNR7QX";

  struct Case {
    mitigate::RateKey key;
    const web::HttpRequest* request;
    std::string expected;
  };
  const std::vector<Case> cases = {
      {mitigate::RateKey::Global, &request, "*"},
      {mitigate::RateKey::ByIp, &request, request.ip.str()},
      {mitigate::RateKey::BySession, &request, request.session.str()},
      {mitigate::RateKey::ByFingerprint, &request, request.fp_hash.str()},
      {mitigate::RateKey::ByBookingRef, &request, "PNR7QX"},
      {mitigate::RateKey::ByBookingRef, &no_ref, "s:" + request.session.str()},
  };
  sim::Simulation sim;
  const app::ClientContext ctx;
  for (const auto& c : cases) {
    mitigate::RuleEngine engine(sim);
    engine.add_rate_limit({"limit", std::nullopt, c.key, 10, sim::kHour});
    ASSERT_EQ(engine.evaluate(*c.request, ctx).action, app::PolicyAction::Allow) << c.expected;
    const mitigate::SlidingWindowRateLimiter* limiter = engine.limiter("limit");
    ASSERT_NE(limiter, nullptr);
    EXPECT_EQ(limiter->key_count(), 1u) << c.expected;
    // Read the window back through the limiter's checkpoint frame, so the
    // check covers the key bytes a checkpoint carries.
    mitigate::SlidingWindowRateLimiter copy(10, sim::kHour);
    const std::string frame = checkpoint_bytes(*limiter);
    util::ByteReader in(frame);
    copy.restore(in);
    ASSERT_TRUE(in.exhausted());
    EXPECT_EQ(copy.current(sim.now(), c.expected), 1u) << c.expected;
  }
}

// --- Hostile restore frames -------------------------------------------------

// A limiter frame in the writer's layout, from (key, timestamps) entries
// given in the order they should appear.
std::string limiter_frame(
    const std::vector<std::pair<std::string, std::vector<sim::SimTime>>>& entries) {
  util::ByteWriter out;
  out.u64(0);  // denials
  out.i64(0);  // last sweep
  out.u64(entries.size());
  for (const auto& [key, times] : entries) {
    out.str(key);
    out.u64(times.size());
    for (sim::SimTime t : times) out.i64(t);
  }
  return out.bytes();
}

bool limiter_restores(const std::string& frame) {
  mitigate::SlidingWindowRateLimiter limiter(2, sim::kHour);
  util::ByteReader in(frame);
  limiter.restore(in);
  return in.ok();
}

TEST(HostileRestore, LimiterAcceptsWriterFrame) {
  EXPECT_TRUE(limiter_restores(limiter_frame({{"a", {1, 2}}, {"b", {3, 3}}})));
}

TEST(HostileRestore, LimiterRejectsDuplicateKey) {
  // Merging both windows would leave 4 events under one key, above limit 2.
  EXPECT_FALSE(limiter_restores(limiter_frame({{"a", {1, 2}}, {"a", {3, 4}}})));
}

TEST(HostileRestore, LimiterRejectsDescendingKeys) {
  EXPECT_FALSE(limiter_restores(limiter_frame({{"b", {1}}, {"a", {2}}})));
}

TEST(HostileRestore, LimiterRejectsDescendingTimestamps) {
  EXPECT_FALSE(limiter_restores(limiter_frame({{"a", {5, 4}}})));
}

// A rule-engine checkpoint with one loyalty gate and one limiter, plus the
// offsets of its enum bytes.
struct EngineFrame {
  std::string bytes;
  std::size_t action = 0;     // blocklist action (app::PolicyAction)
  std::size_t endpoint = 0;   // the loyalty-gated endpoint (web::Endpoint)
  std::size_t challenge = 0;  // challenge mode (mitigate::ChallengeMode)
};

EngineFrame engine_frame(const sim::Simulation& sim) {
  mitigate::RuleEngine engine(sim);
  engine.gate_to_loyalty(web::Endpoint::BoardingPassSms);
  engine.set_challenge_mode(mitigate::ChallengeMode::SuspiciousOnly);
  engine.add_rate_limit({"limit", std::nullopt, mitigate::RateKey::ByIp, 10, sim::kHour});
  util::ByteWriter blocklist;
  engine.blocklist().checkpoint(blocklist);
  util::ByteWriter out;
  engine.checkpoint(out);
  EngineFrame frame;
  frame.bytes = out.bytes();
  // Layout after the blocklist: action u8, ip count u64 (0), cidr count u64
  // (0), gate count u64 (1), one endpoint u8, challenge mode u8.
  frame.action = blocklist.bytes().size();
  frame.endpoint = frame.action + 1 + 8 + 8 + 8;
  frame.challenge = frame.endpoint + 1;
  return frame;
}

bool engine_restores(const sim::Simulation& sim, const std::string& bytes) {
  mitigate::RuleEngine engine(sim);
  engine.add_rate_limit({"limit", std::nullopt, mitigate::RateKey::ByIp, 10, sim::kHour});
  util::ByteReader in(bytes);
  engine.restore(in);
  return in.ok();
}

TEST(HostileRestore, RuleEngineAcceptsWriterFrame) {
  sim::Simulation sim;
  const EngineFrame frame = engine_frame(sim);
  ASSERT_EQ(static_cast<std::uint8_t>(frame.bytes[frame.action]),
            static_cast<std::uint8_t>(app::PolicyAction::Block));
  ASSERT_EQ(static_cast<std::uint8_t>(frame.bytes[frame.endpoint]),
            static_cast<std::uint8_t>(web::Endpoint::BoardingPassSms));
  ASSERT_EQ(static_cast<std::uint8_t>(frame.bytes[frame.challenge]),
            static_cast<std::uint8_t>(mitigate::ChallengeMode::SuspiciousOnly));
  EXPECT_TRUE(engine_restores(sim, frame.bytes));
}

TEST(HostileRestore, RuleEngineRejectsBadPolicyAction) {
  sim::Simulation sim;
  EngineFrame frame = engine_frame(sim);
  frame.bytes[frame.action] = static_cast<char>(0x40);
  EXPECT_FALSE(engine_restores(sim, frame.bytes));
}

TEST(HostileRestore, RuleEngineRejectsBadEndpoint) {
  sim::Simulation sim;
  EngineFrame frame = engine_frame(sim);
  frame.bytes[frame.endpoint] = static_cast<char>(0xFF);
  EXPECT_FALSE(engine_restores(sim, frame.bytes));
}

TEST(HostileRestore, RuleEngineRejectsBadChallengeMode) {
  sim::Simulation sim;
  EngineFrame frame = engine_frame(sim);
  frame.bytes[frame.challenge] = static_cast<char>(3);
  EXPECT_FALSE(engine_restores(sim, frame.bytes));
}

// --- Batched detector API ---------------------------------------------------

// Scalar-only detector: exercises the base-class adapter.
class CountingDetector final : public detect::Detector {
 public:
  [[nodiscard]] const char* name() const override { return "test.counting"; }
  [[nodiscard]] const char* fault_point() const override { return "detect.test.run"; }
  [[nodiscard]] detect::DetectorCost cost() const override {
    return detect::DetectorCost::Cheap;
  }
  void evaluate(const detect::RequestView& view, detect::AlertSink& alerts) override {
    ++calls;
    detect::Alert alert;
    alert.time = view.to;
    alert.detector = name();
    alert.explanation = "window@" + std::to_string(view.from);
    alerts.emit(alert);
    if (view.sessions.size() > 1) {
      alert.explanation += "+extra";
      alerts.emit(alert);
    }
  }
  int calls = 0;
};

TEST(BatchedDetectorApi, AdapterLoopsEvaluateInViewOrder) {
  scenario::EnvConfig config;
  config.seed = 1;
  scenario::Env env(config);

  const std::vector<web::Session> empty;
  const std::vector<web::Session> two(2);
  std::vector<detect::RequestView> views;
  views.push_back({env.app, 0, 100, empty, empty, 1});
  views.push_back({env.app, 100, 200, two, two, 1});
  views.push_back({env.app, 200, 300, empty, empty, 1});

  CountingDetector detector;
  detect::AlertSink sink;
  std::vector<detect::BatchScore> scores(views.size());
  detector.score_batch(views, scores, sink);

  EXPECT_EQ(detector.calls, 3);
  ASSERT_EQ(sink.count(), 4u);  // one per view + the extra for the 2-session view
  EXPECT_EQ(sink.alerts()[0].explanation, "window@0");
  EXPECT_EQ(sink.alerts()[1].explanation, "window@100");
  EXPECT_EQ(sink.alerts()[2].explanation, "window@100+extra");
  EXPECT_EQ(sink.alerts()[3].explanation, "window@200");
  EXPECT_EQ(scores[0].sessions_scored, 0u);
  EXPECT_EQ(scores[1].sessions_scored, 2u);
  EXPECT_EQ(scores[0].alerts, 1u);
  EXPECT_EQ(scores[1].alerts, 2u);
  EXPECT_EQ(scores[2].alerts, 1u);
}

class PipelineIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::global().reset(); }
  void TearDown() override { fault::FaultRegistry::global().reset(); }

  // Runs the pipeline over the world's full window and returns the rendered
  // alert bytes. The scalar reference run arms "detect.batch.run", which
  // demotes every family to the base-class adapter, and checks that the
  // fallback was taken.
  static std::string run_alerts(AlertWorld& world, sim::SimTime horizon, bool batched,
                                detect::PipelineConfig config = {}) {
    scenario::Env& env = world.env;
    if (!batched) {
      fault::FaultRegistry::global().arm("detect.batch.run",
                                         fault::FaultScenario::every_nth(1));
    }
    detect::DetectionPipeline pipeline(config);
    pipeline.bind_obs(&env.app.obs());
    pipeline.fit_nip_baseline(env.app, 0, AlertWorld::kAttackStart);
    pipeline.enable_ip_reputation(env.geo);
    const std::uint64_t fallbacks_before = pipeline.view().stats().batch_fallbacks;
    const auto result = pipeline.run(env.app, env.actors, 0, horizon);
    const std::uint64_t fallbacks = pipeline.view().stats().batch_fallbacks - fallbacks_before;
    fault::FaultRegistry::global().reset();
    if (batched) {
      EXPECT_EQ(fallbacks, 0u);
    } else {
      EXPECT_GE(fallbacks, 1u);
    }
    return render_alerts(result.alerts.alerts());
  }

  // Batched and scalar runs emit identical, non-vacuous alert bytes, with
  // the feature-level families (which only the DoI bot and the SMS pumper
  // trip) among them.
  static void expect_identical(std::uint64_t seed, sim::SimTime horizon,
                               const detect::PipelineConfig& config = {}) {
    AlertWorld world(seed, horizon);
    const std::string batched = run_alerts(world, horizon, true, config);
    const std::string scalar = run_alerts(world, horizon, false, config);
    for (const char* family : {"|nip.", "|name.", "|sms."}) {
      EXPECT_NE(batched.find(family), std::string::npos)
          << "seed " << seed << ": no " << family << " alert — vacuous comparison";
    }
    EXPECT_EQ(batched, scalar) << "seed " << seed;
  }
};

TEST_F(PipelineIdentityTest, BatchedMatchesScalarAcrossSeeds) {
  for (const std::uint64_t seed : {3ull, 9ull}) expect_identical(seed, sim::hours(8));
}

// The scalar reference of every comparison is the batch-fault fallback: with
// "detect.batch.run" armed, each family demotes to the base-class adapter and
// must still emit the batched run's exact alert bytes.
TEST_F(PipelineIdentityTest, BatchFaultFallsBackToScalarIdentically) {
  expect_identical(7, sim::hours(8));
}

TEST_F(PipelineIdentityTest, BatchedMatchesScalarWithEpochSlicing) {
  detect::PipelineConfig sliced;
  sliced.batch_epoch = sim::hours(2);
  sliced.max_batch_epochs = 4;
  expect_identical(5, sim::hours(8), sliced);
}

TEST_F(PipelineIdentityTest, PipelineViewHoldsBatchConservation) {
  AlertWorld world(11, sim::hours(2));
  scenario::Env& env = world.env;
  detect::DetectionPipeline pipeline;
  pipeline.bind_obs(&env.app.obs());
  pipeline.enable_ip_reputation(env.geo);
  (void)pipeline.run(env.app, env.actors, 0, sim::hours(2));

  const detect::PipelineView view = pipeline.view();
  ASSERT_TRUE(view.bound());
  const detect::PipelineStats stats = view.stats();
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_GE(stats.epochs, 1u);
  EXPECT_GT(stats.sessions_in, 0u);
  EXPECT_EQ(stats.sessions_in, stats.sessions_scored + stats.sessions_skipped);
  EXPECT_GT(view.family_runs("ip.reputation"), 0u);
  EXPECT_EQ(view.family_skips("ip.reputation"), 0u);
  // Every family the run touched exposes a (possibly zero) skip counter.
  EXPECT_FALSE(view.skips_by_family().empty());
}

// --- Percentile fix ---------------------------------------------------------

TEST(HistogramPercentile, SingleSampleBucketIsStableAcrossP) {
  obs::MetricsRegistry registry;
  auto h = registry.histogram("latency", {10.0, 20.0, 30.0});
  h.observe(14.0);  // lone sample, mid bucket (10, 20]
  // One observation: every percentile is that observation, and the first
  // non-empty bucket holds the min, so the answer is exact.
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 14.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.90), 14.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 14.0);
}

TEST(HistogramPercentile, SingleSampleTailBucketReportsMax) {
  obs::MetricsRegistry registry;
  auto h = registry.histogram("latency", {10.0, 20.0, 30.0});
  for (int i = 0; i < 99; ++i) h.observe(5.0);
  h.observe(27.0);  // one straggler in (20, 30]
  // The straggler is the distribution max; p99.5 lands in its bucket and must
  // report 27 exactly, not a p-dependent point between 20 and 27.
  EXPECT_DOUBLE_EQ(h.percentile(0.995), 27.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.999), 27.0);
}

TEST(HistogramPercentile, MultiSampleInterpolationStillMonotone) {
  obs::MetricsRegistry registry;
  auto h = registry.histogram("latency", {10.0, 20.0, 30.0});
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i % 28) + 1.0);
  double last = 0.0;
  for (double p = 0.0; p <= 1.0; p += 0.05) {
    const double v = h.percentile(p);
    EXPECT_GE(v, last);
    last = v;
  }
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 28.0);
}

TEST(HistogramPercentile, UtilPercentileAgreesOnExactValues) {
  std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(util::percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(util::percentile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(util::percentile(values, 0.5), 2.5);
}

}  // namespace
