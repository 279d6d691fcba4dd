// Unit tests for the sharded deterministic engine: barrier exchange order,
// same-barrier request/reply round-trips, conservation accounting (including
// a planted message drop), injected exchange faults, and engine-level
// checkpoint/restore.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/fault/fault.hpp"
#include "core/invariant/invariant.hpp"
#include "sim/sharded_simulation.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "util/archive.hpp"

namespace fraudsim {
namespace {

sim::ShardedSimulation::Config config(std::uint32_t shards, sim::SimDuration epoch) {
  sim::ShardedSimulation::Config cfg;
  cfg.shards = shards;
  cfg.epoch = epoch;
  cfg.threads = 1;
  return cfg;
}

TEST(ShardedSim, SingleShardRunsEventsAndBarriers) {
  sim::ShardedSimulation eng(config(1, sim::minutes(10)));
  std::vector<sim::SimTime> fired;
  eng.shard(0).schedule_at(sim::minutes(3), [&] { fired.push_back(sim::minutes(3)); });
  eng.shard(0).schedule_at(sim::minutes(15), [&] { fired.push_back(sim::minutes(15)); });
  eng.run_until(sim::minutes(30));
  EXPECT_EQ(fired, (std::vector<sim::SimTime>{sim::minutes(3), sim::minutes(15)}));
  EXPECT_EQ(eng.barriers_run(), 3u);
  EXPECT_EQ(eng.now(), sim::minutes(30));
  EXPECT_EQ(eng.fired_events(), 2u);
  EXPECT_EQ(eng.messages_sent(), 0u);
}

TEST(ShardedSim, ExchangeDeliversDstMajorSrcMinorFifo) {
  sim::ShardedSimulation eng(config(3, sim::minutes(10)));
  std::vector<std::pair<std::uint32_t, std::uint64_t>> got;  // (src, payload)
  eng.set_message_handler([&](std::uint32_t, const sim::ShardMessage& msg) {
    got.emplace_back(msg.src, msg.a);
  });
  // Shard 2 sends to 1 twice, shard 0 sends to 1 once and to 2 once — all in
  // the same epoch. Drain order must be dst-major (1 before 2), src-minor
  // (0's message to 1 before 2's), FIFO within a stream.
  eng.shard(2).schedule_at(1, [&] {
    eng.send(2, 1, 7, 20);
    eng.send(2, 1, 7, 21);
  });
  eng.shard(0).schedule_at(2, [&] {
    eng.send(0, 2, 7, 2);
    eng.send(0, 1, 7, 1);
  });
  eng.run_until(sim::minutes(10));
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> want = {
      {0, 1}, {2, 20}, {2, 21}, {0, 2}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(eng.messages_sent(), 4u);
  EXPECT_EQ(eng.messages_delivered(), 4u);
  EXPECT_EQ(eng.messages_in_flight(), 0u);
}

TEST(ShardedSim, RequestReplyCompletesWithinOneBarrier) {
  sim::ShardedSimulation eng(config(2, sim::minutes(10)));
  std::vector<std::uint64_t> replies;
  eng.set_message_handler([&](std::uint32_t dst, const sim::ShardMessage& msg) {
    if (msg.type == 1) {
      eng.send(dst, msg.src, 2, msg.a + 100);  // reply mid-barrier
    } else {
      replies.push_back(msg.a);
    }
  });
  eng.shard(0).schedule_at(1, [&] { eng.send(0, 1, 1, 5); });
  eng.run_until(sim::minutes(10));
  EXPECT_EQ(eng.barriers_run(), 1u);
  EXPECT_EQ(replies, std::vector<std::uint64_t>{105});
  EXPECT_EQ(eng.messages_sent(), 2u);
  EXPECT_EQ(eng.messages_delivered(), 2u);
  EXPECT_EQ(eng.messages_in_flight(), 0u);
}

TEST(ShardedSim, PlantedDropTripsShardConservation) {
  sim::ShardedSimulation eng(config(2, sim::minutes(10)));
  eng.set_message_handler([](std::uint32_t, const sim::ShardMessage&) {});
  invariant::InvariantRegistry registry;
  invariant::register_shard_invariants(registry, eng);

  eng.shard(0).schedule_at(1, [&] { eng.send(0, 1, 1, 7); });
  eng.test_drop_next_message();
  eng.run_until(sim::minutes(10));
  EXPECT_EQ(eng.messages_dropped(), 1u);
  EXPECT_EQ(eng.messages_delivered(), 0u);

  ASSERT_EQ(registry.check_all(eng.now()), 1u);
  ASSERT_EQ(registry.violations().size(), 1u);
  EXPECT_EQ(registry.violations()[0].invariant, "shard-conservation");
  EXPECT_NE(registry.violations()[0].detail.find("lost"), std::string::npos);
}

TEST(ShardedSim, CleanRunSatisfiesShardInvariants) {
  sim::ShardedSimulation eng(config(2, sim::minutes(10)));
  eng.set_message_handler([](std::uint32_t, const sim::ShardMessage&) {});
  invariant::InvariantRegistry registry;
  invariant::register_shard_invariants(registry, eng);
  eng.shard(0).schedule_at(1, [&] { eng.send(0, 1, 1, 7); });
  eng.run_until(sim::minutes(10));
  EXPECT_EQ(registry.check_all(eng.now()), 0u);
  EXPECT_TRUE(registry.clean());
}

TEST(ShardedSim, ExchangeFaultChargesRetriesNeverLosses) {
  auto& point = fault::FaultRegistry::global().point("shard.exchange");
  point.arm(fault::FaultScenario::every_nth(2));

  sim::ShardedSimulation eng(config(2, sim::minutes(10)));
  eng.set_exchange_guard([&point](sim::SimTime now) { return point.should_fail(now); });
  std::uint64_t delivered_payload = 0;
  eng.set_message_handler([&](std::uint32_t, const sim::ShardMessage& msg) {
    delivered_payload = msg.a;
  });
  invariant::InvariantRegistry registry;
  invariant::register_shard_invariants(registry, eng);

  for (int e = 0; e < 6; ++e) {
    eng.shard(0).schedule_at(sim::minutes(10) * e + 1,
                             [&eng, e] { eng.send(0, 1, 1, 40 + static_cast<std::uint64_t>(e)); });
  }
  eng.run_until(sim::hours(1));
  point.disarm();

  EXPECT_GT(eng.exchange_retries(), 0u);
  EXPECT_EQ(eng.messages_sent(), 6u);
  EXPECT_EQ(eng.messages_delivered(), 6u);
  EXPECT_EQ(delivered_payload, 45u);
  EXPECT_EQ(registry.check_all(eng.now()), 0u);
}

TEST(ShardedSim, AlwaysFaultCannotWedgeABarrier) {
  auto& point = fault::FaultRegistry::global().point("shard.exchange");
  point.arm(fault::FaultScenario::always());

  sim::ShardedSimulation eng(config(2, sim::minutes(10)));
  eng.set_exchange_guard([&point](sim::SimTime now) { return point.should_fail(now); });
  eng.set_message_handler([](std::uint32_t, const sim::ShardMessage&) {});
  eng.shard(0).schedule_at(1, [&] { eng.send(0, 1, 1, 9); });
  eng.run_until(sim::minutes(10));
  point.disarm();

  EXPECT_EQ(eng.messages_delivered(), 1u);  // retries bounded, then proceed
  EXPECT_GT(eng.exchange_retries(), 0u);
  EXPECT_EQ(eng.messages_in_flight(), 0u);
}

TEST(ShardedSim, RestoreRejectsABlobFromAnotherShardCount) {
  sim::ShardedSimulation eng(config(2, sim::minutes(10)));
  eng.run_until(sim::minutes(20));
  util::ByteWriter out;
  eng.checkpoint(out);

  sim::ShardedSimulation other(config(3, sim::minutes(10)));
  util::ByteReader in(out.bytes());
  other.restore(in);
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(other.now(), 0);
  EXPECT_EQ(other.barriers_run(), 0u);
}

TEST(ShardedSim, CheckpointRestoreRoundTripsAccounting) {
  sim::ShardedSimulation eng(config(2, sim::minutes(10)));
  eng.set_message_handler([](std::uint32_t, const sim::ShardMessage&) {});
  eng.shard(0).schedule_at(1, [&] { eng.send(0, 1, 1, 3); });
  eng.shard(1).schedule_at(2, [&] { eng.send(1, 0, 1, 4); });
  eng.run_until(sim::minutes(20));

  util::ByteWriter out;
  eng.checkpoint(out);

  sim::ShardedSimulation restored(config(2, sim::minutes(10)));
  restored.set_message_handler([](std::uint32_t, const sim::ShardMessage&) {});
  util::ByteReader in(out.bytes());
  restored.restore(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(restored.now(), eng.now());
  EXPECT_EQ(restored.barriers_run(), eng.barriers_run());
  EXPECT_EQ(restored.messages_sent(), eng.messages_sent());
  EXPECT_EQ(restored.messages_delivered(), eng.messages_delivered());
  EXPECT_EQ(restored.shard(0).now(), eng.now());
  EXPECT_EQ(restored.shard(1).now(), eng.now());

  // Both engines continue identically from the common point.
  auto drive = [](sim::ShardedSimulation& e) {
    e.shard(0).schedule_at(e.now() + 1, [&e] { e.send(0, 1, 1, 8); });
    e.run_until(e.now() + sim::minutes(10));
  };
  drive(eng);
  drive(restored);
  EXPECT_EQ(restored.messages_delivered(), eng.messages_delivered());
  EXPECT_EQ(restored.barriers_run(), eng.barriers_run());
}

TEST(ShardedSim, StablePartitionIsThreadAndCallIndependent) {
  sim::ShardedSimulation a(config(4, sim::hours(1)));
  sim::ShardedSimulation b(config(4, sim::minutes(1)));
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(a.shard_of(key), b.shard_of(key));
    EXPECT_LT(a.shard_of(key), 4u);
  }
}

}  // namespace
}  // namespace fraudsim
