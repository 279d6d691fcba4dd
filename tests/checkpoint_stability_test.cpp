// Checkpoint byte-stability regressions.
//
// Checkpoint writers that iterate unordered_map-backed state used to emit
// entries in hash-table iteration order, which (a) differs across standard
// libraries and (b) differs after a restore re-inserts the entries in
// checkpoint order. The contract pinned here: identical LOGICAL state yields
// identical checkpoint BYTES — regardless of the insertion history that
// produced it — and a restore -> re-checkpoint round trip reproduces the
// frame exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "airline/inventory.hpp"
#include "airline/pnr.hpp"
#include "app/actors.hpp"
#include "app/fp_store.hpp"
#include "attack/seat_spin.hpp"
#include "biometrics/detector.hpp"
#include "core/mitigate/controller.hpp"
#include "core/mitigate/rate_limit.hpp"
#include "core/scenario/env.hpp"
#include "fingerprint/population.hpp"
#include "sms/carrier.hpp"
#include "sms/gateway.hpp"
#include "sms/tariff.hpp"
#include "util/archive.hpp"

namespace fraudsim {
namespace {

std::string checkpoint_bytes(const auto& component) {
  util::ByteWriter out;
  component.checkpoint(out);
  return out.bytes();
}

// --- SlidingWindowRateLimiter ----------------------------------------------

TEST(CheckpointStability, RateLimiterIsInsertionOrderIndependent) {
  const std::vector<std::string> keys = {"zeta", "alpha", "10.0.0.9", "10.0.0.1", "mid"};
  mitigate::SlidingWindowRateLimiter forward(10, sim::kHour);
  mitigate::SlidingWindowRateLimiter backward(10, sim::kHour);
  // Same per-key event times, opposite key interleaving: identical logical
  // state through different container histories.
  for (sim::SimTime t = 0; t < 5; ++t) {
    for (const auto& key : keys) ASSERT_TRUE(forward.allow(t, key));
    for (auto it = keys.rbegin(); it != keys.rend(); ++it) ASSERT_TRUE(backward.allow(t, *it));
  }
  EXPECT_EQ(checkpoint_bytes(forward), checkpoint_bytes(backward));
}

TEST(CheckpointStability, RateLimiterRestoreRecheckpointRoundTrips) {
  mitigate::SlidingWindowRateLimiter limiter(5, sim::kHour);
  sim::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    (void)limiter.allow(sim::minutes(i), "key-" + std::to_string(rng.uniform_int(0, 30)));
  }
  const std::string bytes = checkpoint_bytes(limiter);

  mitigate::SlidingWindowRateLimiter restored(5, sim::kHour);
  util::ByteReader in(bytes);
  restored.restore(in);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(checkpoint_bytes(restored), bytes);
}

// --- FingerprintStore ------------------------------------------------------

TEST(CheckpointStability, FingerprintStoreIsInsertionOrderIndependent) {
  fp::PopulationModel population;
  sim::Rng rng(11);
  std::vector<fp::Fingerprint> prints;
  for (int i = 0; i < 40; ++i) prints.push_back(population.sample(rng));

  app::FingerprintStore forward;
  app::FingerprintStore backward;
  for (const auto& print : prints) forward.observe(print, 0);
  for (auto it = prints.rbegin(); it != prints.rend(); ++it) backward.observe(*it, 0);
  EXPECT_EQ(checkpoint_bytes(forward), checkpoint_bytes(backward));
}

TEST(CheckpointStability, FingerprintStoreRestoreRecheckpointRoundTrips) {
  fp::PopulationModel population;
  sim::Rng rng(13);
  app::FingerprintStore store;
  for (int i = 0; i < 64; ++i) store.observe(population.sample(rng), sim::minutes(i));
  const std::string bytes = checkpoint_bytes(store);

  app::FingerprintStore restored;
  util::ByteReader in(bytes);
  restored.restore(in);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(checkpoint_bytes(restored), bytes);
}

// --- ActorRegistry ---------------------------------------------------------

TEST(CheckpointStability, ActorRegistryRestoreRecheckpointRoundTrips) {
  app::ActorRegistry registry;
  // Enough ids to force several hash-table rehashes, so the restore's
  // insertion history differs structurally from the original one.
  for (int i = 0; i < 300; ++i) {
    (void)registry.register_actor(i % 3 == 0 ? app::ActorKind::SeatSpinBot
                                             : app::ActorKind::Human);
  }
  const std::string bytes = checkpoint_bytes(registry);

  app::ActorRegistry restored;
  util::ByteReader in(bytes);
  restored.restore(in);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(checkpoint_bytes(restored), bytes);
}

// --- MitigationController --------------------------------------------------

// Populate the controller's unordered maps (flagged_pnrs_ via real sweeps
// over an attacked platform), then round-trip its checkpoint through a fresh
// controller on a fresh, never-run platform: the re-checkpointed frame must
// be byte-identical even though the restored maps were re-inserted in
// checkpoint order.
TEST(CheckpointStability, MitigationControllerRestoreRecheckpointRoundTrips) {
  scenario::EnvConfig config;
  config.seed = 83;
  config.legit.booking_sessions_per_hour = 6;
  config.legit.browse_sessions_per_hour = 2;
  config.legit.otp_logins_per_hour = 1;
  scenario::Env env(config);
  env.add_flights("A", 12, 150, sim::days(30));
  const auto target = env.app.add_flight("A", 779, 100, sim::days(12));

  attack::SeatSpinConfig bot_config;
  bot_config.target = target;
  attack::SeatSpinBot bot(env.app, env.actors, env.residential, env.population, bot_config,
                          env.rng.fork("bot"));

  mitigate::ControllerConfig controller_config;
  controller_config.min_flagged_pnrs = 2;
  mitigate::MitigationController controller(env.app, env.engine, controller_config);

  const sim::SimTime end = sim::days(2);
  env.start_background(end);
  env.sim.schedule_at(sim::hours(12), [&] {
    controller.fit_nip_baseline(0, sim::hours(12));
    controller.start(end);
    bot.start();
  });
  env.run_until(end);
  ASSERT_GT(controller.fingerprints_blocked(), 0u) << "sweeps must populate the flagged maps";

  const std::string bytes = checkpoint_bytes(controller);

  scenario::EnvConfig fresh_config;
  fresh_config.seed = 84;
  scenario::Env fresh(fresh_config);
  mitigate::MitigationController restored(fresh.app, fresh.engine, controller_config);
  util::ByteReader in(bytes);
  restored.restore(in);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(checkpoint_bytes(restored), bytes);
}

// A controller checkpoint written field by field, in the layout
// MitigationController::checkpoint uses, so each test below can corrupt one
// field of an otherwise valid frame.
struct ControllerFrame {
  static constexpr std::uint64_t kHostile = std::uint64_t{1} << 40;

  std::vector<std::pair<std::int64_t, std::uint64_t>> baseline = {{1, 40}, {2, 25}, {6, 3}};
  std::optional<std::uint64_t> baseline_count;
  std::vector<std::pair<std::uint64_t, std::vector<std::string>>> flagged = {
      {0x11, {"PNR001", "PNR002"}}, {0x22, {"PNR003"}}};
  std::optional<std::uint64_t> flagged_count;
  std::optional<std::uint64_t> first_pnr_count;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hits = {{0x33, 2}, {0x44, 7}};
  std::optional<std::uint64_t> hit_count;
  std::optional<std::uint64_t> action_count;

  [[nodiscard]] std::string bytes() const {
    util::ByteWriter out;
    out.u64(baseline_count.value_or(baseline.size()));
    for (const auto& [nip, count] : baseline) {
      out.i64(nip);
      out.u64(count);
    }
    out.i64(sim::days(2));
    out.u64(flagged_count.value_or(flagged.size()));
    for (std::size_t i = 0; i < flagged.size(); ++i) {
      const auto& [hash, pnrs] = flagged[i];
      out.u64(hash);
      out.u64(i == 0 && first_pnr_count ? *first_pnr_count : pnrs.size());
      for (const auto& pnr : pnrs) out.str(pnr);
    }
    const mitigate::ControllerConfig config;
    biometrics::BiometricDetector(config.biometric_thresholds).checkpoint(out);
    out.u64(0);  // biometric cursor
    out.u64(hit_count.value_or(hits.size()));
    for (const auto& [hash, count] : hits) {
      out.u64(hash);
      out.u64(count);
    }
    out.u64(action_count.value_or(1));
    out.i64(sim::hours(7));
    out.str("fp-block");
    out.str("17");
    out.boolean(false);
    out.boolean(false);
    return out.take();
  }
};

// Restores `frame` into a controller on a fresh platform and re-checkpoints
// it; nullopt when the decoder rejects the frame.
std::optional<std::string> restore_controller(const ControllerFrame& frame) {
  scenario::Env env(scenario::EnvConfig{});
  mitigate::MitigationController controller(env.app, env.engine, mitigate::ControllerConfig{});
  const std::string bytes = frame.bytes();
  util::ByteReader in(bytes);
  controller.restore(in);
  if (!in.exhausted()) return std::nullopt;
  return checkpoint_bytes(controller);
}

TEST(CheckpointStability, MitigationControllerRestoreAcceptsTheHandWrittenFrame) {
  const ControllerFrame frame;
  EXPECT_EQ(restore_controller(frame), frame.bytes());
}

TEST(CheckpointStability, MitigationControllerRestoreRejectsHostileBaselineCount) {
  ControllerFrame frame;
  frame.baseline_count = ControllerFrame::kHostile;
  EXPECT_FALSE(restore_controller(frame));
}

TEST(CheckpointStability, MitigationControllerRestoreRejectsHostileFlaggedCount) {
  ControllerFrame frame;
  frame.flagged_count = ControllerFrame::kHostile;
  EXPECT_FALSE(restore_controller(frame));
}

TEST(CheckpointStability, MitigationControllerRestoreRejectsHostilePnrCount) {
  ControllerFrame frame;
  frame.first_pnr_count = ControllerFrame::kHostile;
  EXPECT_FALSE(restore_controller(frame));
}

TEST(CheckpointStability, MitigationControllerRestoreRejectsHostileBiometricHitCount) {
  ControllerFrame frame;
  frame.hit_count = ControllerFrame::kHostile;
  EXPECT_FALSE(restore_controller(frame));
}

TEST(CheckpointStability, MitigationControllerRestoreRejectsHostileActionCount) {
  ControllerFrame frame;
  frame.action_count = ControllerFrame::kHostile;
  EXPECT_FALSE(restore_controller(frame));
}

TEST(CheckpointStability, MitigationControllerRestoreRejectsDuplicateFlaggedHash) {
  // Two entries for one hash would silently merge two PNR tallies.
  ControllerFrame frame;
  frame.flagged[1].first = frame.flagged[0].first;
  EXPECT_FALSE(restore_controller(frame));
  frame.flagged[1].first = frame.flagged[0].first - 1;  // descending
  EXPECT_FALSE(restore_controller(frame));
}

TEST(CheckpointStability, MitigationControllerRestoreRejectsDuplicateBiometricHitHash) {
  ControllerFrame frame;
  frame.hits[1].first = frame.hits[0].first;
  EXPECT_FALSE(restore_controller(frame));
  frame.hits[1].first = frame.hits[0].first - 1;  // descending
  EXPECT_FALSE(restore_controller(frame));
}

TEST(CheckpointStability, MitigationControllerRestoreRejectsDuplicateNipBaselineKey) {
  ControllerFrame frame;
  frame.baseline[2].first = frame.baseline[0].first;
  EXPECT_FALSE(restore_controller(frame));
}

// --- InventoryManager ------------------------------------------------------

constexpr std::uint64_t kHostileCount = std::uint64_t{1} << 40;

// An inventory checkpoint written field by field, in the layout
// InventoryManager::checkpoint uses: two flights, a held two-passenger
// reservation and a ticketed one.
struct InventoryFrame {
  struct Res {
    std::string pnr;
    std::uint64_t flight;
    std::vector<std::string> passengers;  // first names; the rest is fixed
    std::uint8_t state;
  };
  std::vector<Res> reservations = {
      {"ABC123", 1, {"ana", "luis"}, static_cast<std::uint8_t>(airline::ReservationState::Held)},
      {"XYZ789", 2, {"kim"}, static_cast<std::uint8_t>(airline::ReservationState::Ticketed)}};
  std::optional<std::uint64_t> issued_count;
  std::optional<std::uint64_t> flight_count;
  std::optional<std::uint64_t> reservation_count;
  std::optional<std::uint64_t> first_party_count;

  [[nodiscard]] std::string bytes() const {
    util::ByteWriter out;
    out.i64(sim::minutes(30));  // hold duration
    out.i64(9);                 // max NiP
    sim::Rng(5).checkpoint(out);
    out.u64(issued_count.value_or(1));
    out.str("ABC123");
    out.u64(flight_count.value_or(2));
    for (std::uint64_t id : {1, 2}) {
      out.u64(id);
      out.str("FS");
      out.i64(100 + static_cast<std::int64_t>(id));
      out.i64(180);
      out.i64(sim::days(10));
    }
    out.u64(reservation_count.value_or(reservations.size()));
    for (std::size_t i = 0; i < reservations.size(); ++i) {
      const Res& r = reservations[i];
      out.str(r.pnr);
      out.u64(r.flight);
      out.u64(i == 0 && first_party_count ? *first_party_count : r.passengers.size());
      for (const auto& first : r.passengers) {
        out.str(first);
        out.str("garcia");
        out.i64(1980);
        out.i64(4);
        out.i64(12);
        out.str(first + "@example.com");
      }
      out.i64(sim::hours(1));  // created
      out.i64(sim::hours(1) + sim::minutes(30));
      out.u8(r.state);
      out.i64(sim::hours(1));  // state changed
      out.u32(0x0A000001u);
      out.u64(0x55);
      out.u64(7);
    }
    for (std::uint64_t tally : {2, 0, 0, 1, 0}) out.u64(tally);
    return out.take();
  }
};

// Restores `frame` into a fresh inventory and re-checkpoints it; nullopt
// when the decoder rejects the frame.
std::optional<std::string> restore_inventory(const InventoryFrame& frame) {
  airline::InventoryManager inventory(airline::InventoryConfig{}, sim::Rng(1));
  const std::string bytes = frame.bytes();
  util::ByteReader in(bytes);
  inventory.restore(in);
  if (!in.exhausted()) return std::nullopt;
  return checkpoint_bytes(inventory);
}

TEST(CheckpointStability, InventoryRestoreAcceptsTheHandWrittenFrame) {
  const InventoryFrame frame;
  EXPECT_EQ(restore_inventory(frame), frame.bytes());
}

TEST(CheckpointStability, InventoryRestoreRejectsHostileIssuedPnrCount) {
  InventoryFrame frame;
  frame.issued_count = kHostileCount;
  EXPECT_FALSE(restore_inventory(frame));
}

TEST(CheckpointStability, InventoryRestoreRejectsHostileFlightCount) {
  InventoryFrame frame;
  frame.flight_count = kHostileCount;
  EXPECT_FALSE(restore_inventory(frame));
}

TEST(CheckpointStability, InventoryRestoreRejectsHostileReservationCount) {
  // The count reserve() used to allocate for: 2^40 reservations threw
  // std::bad_alloc before the loop ever ran out of input.
  InventoryFrame frame;
  frame.reservation_count = kHostileCount;
  EXPECT_FALSE(restore_inventory(frame));
}

TEST(CheckpointStability, InventoryRestoreRejectsHostilePartySize) {
  InventoryFrame frame;
  frame.first_party_count = kHostileCount;
  EXPECT_FALSE(restore_inventory(frame));
}

TEST(CheckpointStability, InventoryRestoreRejectsOutOfRangeReservationState) {
  InventoryFrame frame;
  frame.reservations[1].state = static_cast<std::uint8_t>(airline::ReservationState::Expired) + 1;
  EXPECT_FALSE(restore_inventory(frame));
  frame.reservations[1].state = 0xFF;
  EXPECT_FALSE(restore_inventory(frame));
}

// --- SmsGateway ------------------------------------------------------------

// A gateway checkpoint written field by field, in the layout
// SmsGateway::checkpoint uses: a delivered OTP, a boarding pass waiting on a
// carrier retry, and that retry.
struct GatewayFrame {
  struct Record {
    std::uint8_t type;
    std::optional<std::string> booking_ref;
    bool delivered;
    std::uint8_t failure;
  };
  struct Retry {
    sim::SimTime due;
    std::uint64_t index;
    std::int64_t attempt;
  };
  std::vector<Record> log = {
      {static_cast<std::uint8_t>(sms::SmsType::Otp), std::nullopt, true,
       static_cast<std::uint8_t>(sms::SmsFailure::None)},
      {static_cast<std::uint8_t>(sms::SmsType::BoardingPass), "ABC123", false,
       static_cast<std::uint8_t>(sms::SmsFailure::CarrierTransient)}};
  std::vector<Retry> retries = {{sim::minutes(5), 1, 2}};
  std::uint8_t breaker_state = 0;  // Closed
  std::optional<std::uint64_t> log_count;
  std::optional<std::uint64_t> daily_count;
  std::optional<std::uint64_t> retry_count;

  [[nodiscard]] std::string bytes() const {
    util::ByteWriter out;
    out.u64(log_count.value_or(log.size()));
    for (const Record& r : log) {
      out.i64(sim::minutes(1));
      out.u16(net::CountryCode('U', 'Z').packed());
      out.str("901234567");
      out.u8(r.type);
      out.u64(7);
      out.boolean(r.booking_ref.has_value());
      if (r.booking_ref) out.str(*r.booking_ref);
      out.i64(sim::hours(1));  // deadline
      out.boolean(r.delivered);
      out.u8(r.failure);
      out.i64(1);
      out.i64(r.delivered ? sim::minutes(1) : -1);
      out.i64(20'000);
      out.i64(r.delivered ? 5'000 : 0);
    }
    out.i64(40'000);  // total app cost
    out.i64(sim::kDay);
    out.u64(daily_count.value_or(1));
    out.f64(1.0);
    out.i64(0);  // quota day
    out.u64(2);  // quota used
    out.u8(breaker_state);
    for (int field = 0; field < 2; ++field) out.u64(0);
    out.boolean(false);
    out.i64(0);
    for (int field = 0; field < 2; ++field) out.u64(0);
    sim::Rng(0xF417).checkpoint(out);
    out.u64(retry_count.value_or(retries.size()));
    for (const Retry& r : retries) {
      out.i64(r.due);
      out.u64(r.index);
      out.i64(r.attempt);
    }
    return out.take();
  }
};

// Restores `frame` into a fresh gateway and re-checkpoints it; nullopt when
// the decoder rejects the frame. A rejected frame's retry queue is drained
// too, which must stay inside the restored log.
std::optional<std::string> restore_gateway(const GatewayFrame& frame) {
  const sms::CarrierNetwork network(sms::TariffTable::standard(), sms::CarrierPolicy{});
  sms::SmsGateway gateway(network, sms::GatewayConfig{});
  const std::string bytes = frame.bytes();
  util::ByteReader in(bytes);
  gateway.restore(in);
  if (!in.exhausted()) {
    gateway.process_retries(sim::days(1));
    return std::nullopt;
  }
  return checkpoint_bytes(gateway);
}

TEST(CheckpointStability, SmsGatewayRestoreAcceptsTheHandWrittenFrame) {
  const GatewayFrame frame;
  EXPECT_EQ(restore_gateway(frame), frame.bytes());
}

TEST(CheckpointStability, SmsGatewayRestoreRejectsHostileLogCount) {
  GatewayFrame frame;
  frame.log_count = kHostileCount;
  EXPECT_FALSE(restore_gateway(frame));
}

TEST(CheckpointStability, SmsGatewayRestoreRejectsHostileDailySeriesCount) {
  GatewayFrame frame;
  frame.daily_count = kHostileCount;
  EXPECT_FALSE(restore_gateway(frame));
}

TEST(CheckpointStability, SmsGatewayRestoreRejectsOutOfRangeBreakerState) {
  GatewayFrame frame;
  frame.breaker_state = static_cast<std::uint8_t>(fault::CircuitBreaker::State::HalfOpen) + 1;
  EXPECT_FALSE(restore_gateway(frame));
}

TEST(CheckpointStability, SmsGatewayRestoreRejectsHostileRetryCount) {
  GatewayFrame frame;
  frame.retry_count = kHostileCount;
  EXPECT_FALSE(restore_gateway(frame));
}

TEST(CheckpointStability, SmsGatewayRestoreRejectsOutOfRangeSmsType) {
  GatewayFrame frame;
  frame.log[1].type = static_cast<std::uint8_t>(sms::SmsType::Notification) + 1;
  EXPECT_FALSE(restore_gateway(frame));
}

TEST(CheckpointStability, SmsGatewayRestoreRejectsOutOfRangeSmsFailure) {
  GatewayFrame frame;
  frame.log[1].failure = static_cast<std::uint8_t>(sms::SmsFailure::DeadlineExpired) + 1;
  EXPECT_FALSE(restore_gateway(frame));
}

TEST(CheckpointStability, SmsGatewayRestoreRejectsARetryPastTheLog) {
  // process_retries would hand this index to attempt_delivery, which writes
  // the record it names.
  GatewayFrame frame;
  frame.retries[0].index = frame.log.size();
  EXPECT_FALSE(restore_gateway(frame));
  frame.retries[0].index = kHostileCount;
  EXPECT_FALSE(restore_gateway(frame));
}

}  // namespace
}  // namespace fraudsim
