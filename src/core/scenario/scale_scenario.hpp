// Mega-scale seat-inventory scenario over the sharded engine.
//
// The paper's evidence lives at industrial volume: functional abuse is only
// visible — and mitigations only provably cheap — against millions of users
// and hundreds of millions of reservation events. This scenario is the
// repo's population-scale workload: a seat-hold/pay/expiry economy over a
// flight inventory, runnable two ways off the SAME workload logic:
//
//   * run_scale_serial  — today's single `sim::Simulation` event loop, the
//     reference the sharded engine is judged against;
//   * run_scale_sharded — K shards over `sim::ShardedSimulation`: users
//     partitioned by stable hash, flights by ownership hash; a session
//     holding a seat on another shard's flight goes through typed messages
//     (hold-request → granted/denied → pay-request) exchanged at epoch
//     barriers.
//
// Determinism contract (CI-enforced):
//   * K=1 artifacts are byte-identical to the serial runner's;
//   * fixed-K artifacts are byte-identical across 1/2/N worker threads;
//   * a run resumed from its checkpoints is byte-identical to an
//     uninterrupted one.
//
// Per-user randomness is stateless — every behavioural decision is a
// splitmix64 hash of (user seed, draw counter) — so a user acts identically
// no matter which shard or thread hosts it. The per-shard forked Rng streams
// are spent only at init (fare assignment in global flight order).
//
// Each shard keeps a private entity graph fed by its own (sampled) hold/pay
// stream; at the end of the run the graphs are merged via the canonical
// partition (EntityGraph::merge_from) and the merged graph is scored for
// organized rings. Checkpoints take the same path as a recorded run's: each
// is one CRC-framed Checkpoint frame in the run's journal
// (<out_dir>/run.journal) holding the engine and every shard at one barrier,
// and resume restarts from the newest intact frame.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace fraudsim::scenario {

struct ScaleConfig {
  std::uint64_t seed = 1;
  std::uint64_t users = 10'000;
  std::uint64_t flights = 256;
  std::uint32_t seats_per_flight = 64;
  sim::SimTime horizon = sim::days(2);
  sim::SimDuration epoch = sim::hours(1);

  // Behaviour (consumed via stateless per-user draws).
  sim::SimDuration think_min = sim::minutes(2);
  sim::SimDuration think_spread = sim::minutes(20);
  sim::SimDuration hold_ttl = sim::minutes(30);
  sim::SimDuration pay_delay = sim::minutes(10);
  std::uint32_t pay_percent = 60;   // chance a granted hold intends to pay
  std::uint64_t graph_sample = 16;  // 1-in-N users feed the entity graph

  // Sharded-engine knobs (run_scale_serial ignores them).
  std::uint32_t shards = 1;
  unsigned threads = 1;

  // Checkpoint every N barriers (0 = off) into <out_dir>/run.journal.
  std::uint32_t checkpoint_every = 0;
  std::string out_dir;

  // Stable digest over every behaviour-relevant field (journal binding).
  [[nodiscard]] std::uint64_t digest() const;
};

// End-of-run results. Every field is a pure function of (config minus
// threads) — the string artifacts are what the determinism CI diffs.
struct ScaleArtifacts {
  std::string report;      // byte-stable summary table
  std::string shards_csv;  // one row per shard (serial: one "shard 0" row)
  std::string graph_csv;   // merged-graph component verdicts

  // FNV digest over end-state in global id order (users, flights, counters).
  std::uint64_t state_digest = 0;

  std::uint64_t events_fired = 0;
  std::uint64_t activities = 0;
  std::uint64_t holds = 0;
  std::uint64_t denials = 0;
  std::uint64_t pays = 0;
  std::uint64_t pay_late = 0;
  std::uint64_t expiries = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t exchange_retries = 0;
  std::uint64_t barriers = 0;
  std::uint64_t graph_events = 0;
  std::uint64_t invariant_violations = 0;
  std::string invariant_report;
};

// Reference runner: one serial event loop, barrier hooks at the same epoch
// instants the sharded engine would use.
[[nodiscard]] ScaleArtifacts run_scale_serial(const ScaleConfig& cfg);

// Sharded runner. With cfg.checkpoint_every > 0 and a non-empty out_dir,
// appends one Checkpoint frame per checkpoint barrier to <out_dir>/run.journal
// (a failed write is reported as a violation). Both runners refuse a config
// past the closure-packing limits — over 4096 shards, or over 2^20 seats on
// one shard — running nothing and reporting the limit as a violation.
[[nodiscard]] ScaleArtifacts run_scale_sharded(const ScaleConfig& cfg);

// Resumes from the newest intact Checkpoint frame of <out_dir>/run.journal
// (a torn tail is dropped), then runs to the horizon. Artifacts are
// byte-identical to an uninterrupted run_scale_sharded with the same config.
// No journal, mid-file corruption, another seed/config, no Checkpoint frame
// or a newest frame that does not decode all mean a fresh run.
[[nodiscard]] ScaleArtifacts resume_scale_sharded(const ScaleConfig& cfg);

}  // namespace fraudsim::scenario
