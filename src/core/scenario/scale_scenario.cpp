#include "core/scenario/scale_scenario.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/detect/graph/entity_graph.hpp"
#include "core/detect/graph/graph_detector.hpp"
#include "core/fault/fault.hpp"
#include "core/invariant/invariant.hpp"
#include "core/journal/journal.hpp"
#include "core/recover/recovery.hpp"
#include "sim/rng.hpp"
#include "sim/sharded_simulation.hpp"
#include "sim/simulation.hpp"
#include "util/archive.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "util/table.hpp"

namespace fraudsim::scenario {

namespace {

// Cross-shard message types.
constexpr std::uint32_t kMsgHoldRequest = 1;  // a=user, b=flight, c=intent_pay
constexpr std::uint32_t kMsgHoldGranted = 2;  // a=user, b=hold idx, c=intent_pay (src=owner)
constexpr std::uint32_t kMsgHoldDenied = 3;   // a=user
constexpr std::uint32_t kMsgPayRequest = 4;   // a=hold idx, b=hold generation

// Closure payload packing: every event closure captures exactly (World*,
// u64) — 16 trivially-copyable bytes, inside std::function's small-buffer
// optimisation, so the hot path never allocates per event.
//   pay decision: [user shard:12][flight shard:12][hold idx:20][generation:20]
//   expiry:       [shard:12][hold idx:20] (no generation — pay cancels the
//                 expiry event, so a firing expiry always matches its hold)
// A config must fit the shard and hold-index fields before anything runs;
// the generation is a deliberately wrapping 20-bit counter.
constexpr std::uint32_t kMaxShards = 1U << 12;
constexpr std::uint64_t kMaxHoldsPerShard = 1ULL << 20;

constexpr std::uint64_t pack_pay(std::uint32_t us, std::uint32_t fs, std::uint64_t hidx,
                                 std::uint32_t gen) {
  return (static_cast<std::uint64_t>(us) << 52) | (static_cast<std::uint64_t>(fs) << 40) |
         (hidx << 20) | (gen & 0xFFFFF);
}
constexpr std::uint64_t pack_expiry(std::uint32_t shard, std::uint64_t hidx) {
  return (static_cast<std::uint64_t>(shard) << 20) | hidx;
}

struct UserState {
  std::uint64_t draws = 0;  // stateless-randomness cursor
  sim::EventId pending_event = 0;
  sim::SimTime pending_at = 0;
  std::uint32_t holds = 0;
  std::uint32_t denials = 0;
  std::uint32_t pays = 0;
};

struct FlightState {
  std::uint32_t held = 0;
  std::uint32_t paid = 0;
  std::uint32_t capacity = 0;
  std::uint32_t fare = 0;  // drawn from the owner shard's forked Rng at init
};

struct HoldRec {
  std::uint64_t user = 0;
  std::uint64_t flight = 0;
  sim::EventId expiry_event = 0;
  sim::SimTime expiry_at = 0;
  std::uint32_t gen = 0;  // bumped on every reuse of this slot
  bool live = false;
};

struct ShardCounters {
  std::uint64_t activities = 0;
  std::uint64_t holds = 0;
  std::uint64_t denials = 0;
  std::uint64_t pays = 0;
  std::uint64_t pay_late = 0;
  std::uint64_t expiries = 0;
  std::uint64_t graph_events = 0;
};

struct GraphOp {
  std::uint64_t user = 0;
  std::uint64_t flight = 0;
  sim::SimTime at = 0;
  std::uint8_t kind = 0;  // 0 = hold, 1 = pay
};

struct ShardState {
  explicit ShardState(const detect::graph::GraphConfig& gcfg) : graph(gcfg) {}

  std::vector<HoldRec> holds;
  std::vector<std::uint32_t> free_holds;  // LIFO — order is checkpointed
  // Pay decisions scheduled but not yet fired, keyed by packed payload
  // (unique per live grant). A decision scheduled in the last pay_delay of an
  // epoch is still pending when a checkpoint runs, so these descriptors must
  // survive a resume like activity timers and hold expiries do. std::map for
  // deterministic serialisation order.
  std::map<std::uint64_t, std::pair<sim::EventId, sim::SimTime>> pending_pays;
  ShardCounters counters;
  // Collected on the shard's thread during an epoch, applied to `graph` on
  // the main thread at the barrier (the graph consults the thread_local
  // fault registry, so ingest must never run on a worker).
  std::vector<GraphOp> graph_ops;
  detect::graph::EntityGraph graph;
};

// The scheduling/messaging seam the workload runs against. One
// implementation wraps the serial engine, one the sharded engine; everything
// above this interface is shared, which is what makes "serial vs K=1
// byte-identical" a property of the engines rather than of two workloads.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual sim::EventId schedule(std::uint32_t shard, sim::SimTime at, sim::EventFn fn) = 0;
  virtual bool cancel(std::uint32_t shard, sim::EventId id) = 0;
  [[nodiscard]] virtual sim::SimTime now(std::uint32_t shard) const = 0;
  virtual void send(std::uint32_t src, std::uint32_t dst, std::uint32_t type, std::uint64_t a,
                    std::uint64_t b, std::uint64_t c) = 0;
  [[nodiscard]] virtual std::uint32_t user_shard(std::uint64_t user) const = 0;
  [[nodiscard]] virtual std::uint32_t flight_shard(std::uint64_t flight) const = 0;
};

class SerialTransport final : public Transport {
 public:
  sim::EventId schedule(std::uint32_t, sim::SimTime at, sim::EventFn fn) override {
    return sim_.schedule_at(at, std::move(fn));
  }
  bool cancel(std::uint32_t, sim::EventId id) override { return sim_.cancel(id); }
  [[nodiscard]] sim::SimTime now(std::uint32_t) const override { return sim_.now(); }
  void send(std::uint32_t, std::uint32_t, std::uint32_t, std::uint64_t, std::uint64_t,
            std::uint64_t) override {
    assert(false && "serial run owns every flight locally — nothing to send");
  }
  [[nodiscard]] std::uint32_t user_shard(std::uint64_t) const override { return 0; }
  [[nodiscard]] std::uint32_t flight_shard(std::uint64_t) const override { return 0; }

  sim::Simulation sim_;
};

class ShardedTransport final : public Transport {
 public:
  explicit ShardedTransport(const sim::ShardedSimulation::Config& cfg) : engine_(cfg) {}

  sim::EventId schedule(std::uint32_t shard, sim::SimTime at, sim::EventFn fn) override {
    return engine_.shard(shard).schedule_at(at, std::move(fn));
  }
  bool cancel(std::uint32_t shard, sim::EventId id) override {
    return engine_.shard(shard).cancel(id);
  }
  [[nodiscard]] sim::SimTime now(std::uint32_t shard) const override {
    return engine_.shard(shard).now();
  }
  void send(std::uint32_t src, std::uint32_t dst, std::uint32_t type, std::uint64_t a,
            std::uint64_t b, std::uint64_t c) override {
    engine_.send(src, dst, type, a, b, c);
  }
  // Disjoint key domains (2u vs 2f+1) so a user and a flight with the same
  // numeric id land on independently-hashed shards.
  [[nodiscard]] std::uint32_t user_shard(std::uint64_t user) const override {
    return engine_.shard_of(2 * user);
  }
  [[nodiscard]] std::uint32_t flight_shard(std::uint64_t flight) const override {
    return engine_.shard_of(2 * flight + 1);
  }

  sim::ShardedSimulation engine_;
};

struct World {
  const ScaleConfig* cfg = nullptr;
  Transport* transport = nullptr;
  std::vector<UserState> users;
  std::vector<FlightState> flights;
  std::vector<std::unique_ptr<ShardState>> shards;

  [[nodiscard]] std::uint64_t user_seed(std::uint64_t u) const {
    return util::splitmix64(cfg->seed ^ (0x9E3779B97F4A7C15ULL * (u + 1)));
  }
  // Stateless per-user randomness: draw n of user u is a pure hash, so the
  // behaviour stream is identical on any shard, any thread, any K.
  [[nodiscard]] std::uint64_t next_draw(std::uint64_t u) {
    UserState& s = users[u];
    ++s.draws;
    return util::splitmix64(user_seed(u) + 0x9E3779B97F4A7C15ULL * s.draws);
  }
  [[nodiscard]] bool sampled(std::uint64_t u) const {
    return cfg->graph_sample > 0 && u % cfg->graph_sample == 0;
  }
};

[[nodiscard]] detect::graph::GraphConfig scale_graph_config(const ScaleConfig& cfg) {
  // Sized so the sampled population never triggers cap evictions — eviction
  // is deterministic, but cap-free graphs keep the scenario's byte-identity
  // reasoning simple.
  detect::graph::GraphConfig gcfg;
  const std::uint64_t sampled =
      cfg.graph_sample > 0 ? cfg.users / cfg.graph_sample + 1 : cfg.users;
  gcfg.max_nodes = std::max<std::size_t>(4096, 2 * sampled + cfg.flights + 16);
  gcfg.max_edges = gcfg.max_nodes * 4;
  gcfg.component_cap = gcfg.max_nodes;  // rings are scored, not capped, here
  return gcfg;
}

void on_activity(World* w, std::uint64_t u);
void on_expiry(World* w, std::uint64_t packed);
void on_pay_decision(World* w, std::uint64_t packed);

void schedule_activity(World* w, std::uint64_t u, sim::SimTime at) {
  UserState& user = w->users[u];
  user.pending_at = at;
  user.pending_event = w->transport->schedule(w->transport->user_shard(u), at,
                                              [w, u] { on_activity(w, u); });
}

std::uint64_t alloc_hold(ShardState& ss) {
  std::uint64_t idx;
  if (!ss.free_holds.empty()) {
    idx = ss.free_holds.back();
    ss.free_holds.pop_back();
  } else {
    idx = ss.holds.size();
    ss.holds.emplace_back();
  }
  assert(idx < kMaxHoldsPerShard && "init_static admits no config that gets here");
  ++ss.holds[idx].gen;
  return idx;
}

void free_hold(ShardState& ss, std::uint64_t idx) {
  ss.free_holds.push_back(static_cast<std::uint32_t>(idx));
}

void apply_pay(World* w, std::uint32_t fs, std::uint64_t hidx, std::uint32_t gen) {
  ShardState& ss = *w->shards[fs];
  if (hidx >= ss.holds.size()) return;
  HoldRec& h = ss.holds[hidx];
  // Generation check: the hold may have expired — and its slot been reused
  // for a different hold — between the pay decision and this apply.
  if (!h.live || (h.gen & 0xFFFFF) != (gen & 0xFFFFF)) {
    ++ss.counters.pay_late;
    return;
  }
  h.live = false;
  w->transport->cancel(fs, h.expiry_event);  // exercises cancel + compaction
  FlightState& fl = w->flights[h.flight];
  --fl.held;
  ++fl.paid;
  ++ss.counters.pays;
  ++w->users[h.user].pays;
  if (w->sampled(h.user)) {
    ss.graph_ops.push_back({h.user, h.flight, w->transport->now(fs), 1});
  }
  free_hold(ss, hidx);
}

void on_pay_decision(World* w, std::uint64_t packed) {
  const auto us = static_cast<std::uint32_t>(packed >> 52);
  const auto fs = static_cast<std::uint32_t>((packed >> 40) & 0xFFF);
  const std::uint64_t hidx = (packed >> 20) & 0xFFFFF;
  const auto gen = static_cast<std::uint32_t>(packed & 0xFFFFF);
  w->shards[us]->pending_pays.erase(packed);
  if (us == fs) {
    apply_pay(w, fs, hidx, gen);
  } else {
    w->transport->send(us, fs, kMsgPayRequest, hidx, gen, 0);
  }
}

// All pay decisions go through here so the pending-descriptor map stays in
// lockstep with the queue — a decision still pending at a checkpoint must be
// re-registrable on resume.
void schedule_pay(World* w, sim::SimTime at, std::uint64_t packed) {
  const auto us = static_cast<std::uint32_t>(packed >> 52);
  const sim::EventId id =
      w->transport->schedule(us, at, [w, packed] { on_pay_decision(w, packed); });
  w->shards[us]->pending_pays.emplace(packed, std::make_pair(id, at));
}

void on_expiry(World* w, std::uint64_t packed) {
  const auto s = static_cast<std::uint32_t>(packed >> 20);
  const std::uint64_t hidx = packed & 0xFFFFF;
  ShardState& ss = *w->shards[s];
  HoldRec& h = ss.holds[hidx];
  if (!h.live) return;
  h.live = false;
  --w->flights[h.flight].held;
  ++ss.counters.expiries;
  free_hold(ss, hidx);
}

void apply_hold(World* w, std::uint32_t fs, sim::SimTime now, std::uint64_t u, std::uint64_t f,
                bool intent_pay, bool remote) {
  ShardState& ss = *w->shards[fs];
  FlightState& fl = w->flights[f];
  if (fl.held + fl.paid >= fl.capacity) {
    ++ss.counters.denials;
    if (remote) {
      w->transport->send(fs, w->transport->user_shard(u), kMsgHoldDenied, u, 0, 0);
    } else {
      ++w->users[u].denials;
    }
    return;
  }
  ++fl.held;
  const std::uint64_t hidx = alloc_hold(ss);
  HoldRec& h = ss.holds[hidx];
  h.user = u;
  h.flight = f;
  h.live = true;
  h.expiry_at = now + w->cfg->hold_ttl;
  const std::uint64_t packed = pack_expiry(fs, hidx);
  h.expiry_event =
      w->transport->schedule(fs, h.expiry_at, [w, packed] { on_expiry(w, packed); });
  ++ss.counters.holds;
  if (w->sampled(u)) ss.graph_ops.push_back({u, f, now, 0});
  if (remote) {
    w->transport->send(fs, w->transport->user_shard(u), kMsgHoldGranted, u, hidx,
                       intent_pay ? 1 : 0);
  } else {
    ++w->users[u].holds;
    if (intent_pay) {
      schedule_pay(w, now + w->cfg->pay_delay,
                   pack_pay(fs, fs, hidx, w->shards[fs]->holds[hidx].gen));
    }
  }
}

void on_activity(World* w, std::uint64_t u) {
  const std::uint32_t us = w->transport->user_shard(u);
  ShardState& ss = *w->shards[us];
  const sim::SimTime now = w->transport->now(us);
  ++ss.counters.activities;
  const std::uint64_t r = w->next_draw(u);
  const std::uint64_t f = r % w->cfg->flights;
  const bool intent_pay = ((r >> 24) % 100) < w->cfg->pay_percent;
  const sim::SimDuration dt =
      w->cfg->think_min +
      static_cast<sim::SimDuration>((r >> 32) %
                                    static_cast<std::uint64_t>(w->cfg->think_spread + 1));
  const sim::SimTime next_at = now + dt;
  if (next_at < w->cfg->horizon) {
    schedule_activity(w, u, next_at);
  } else {
    w->users[u].pending_event = 0;
    w->users[u].pending_at = 0;
  }
  const std::uint32_t fs = w->transport->flight_shard(f);
  if (fs == us) {
    apply_hold(w, fs, now, u, f, intent_pay, /*remote=*/false);
  } else {
    w->transport->send(us, fs, kMsgHoldRequest, u, f, intent_pay ? 1 : 0);
  }
}

// Main-thread message handler (barrier exchange).
void on_message(World* w, std::uint32_t dst, const sim::ShardMessage& msg) {
  switch (msg.type) {
    case kMsgHoldRequest:
      apply_hold(w, dst, w->transport->now(dst), msg.a, msg.b, msg.c != 0, /*remote=*/true);
      break;
    case kMsgHoldGranted: {
      ++w->users[msg.a].holds;
      if (msg.c != 0) {
        const std::uint32_t us = dst;
        const std::uint32_t fs = msg.src;
        const std::uint32_t gen = w->shards[fs]->holds[msg.b].gen;
        schedule_pay(w, w->transport->now(us) + w->cfg->pay_delay,
                     pack_pay(us, fs, msg.b, gen));
      }
      break;
    }
    case kMsgHoldDenied:
      ++w->users[msg.a].denials;
      break;
    case kMsgPayRequest:
      apply_pay(w, dst, msg.a, static_cast<std::uint32_t>(msg.b));
      break;
    default:
      assert(false && "unknown shard message type");
  }
}

// --- Init --------------------------------------------------------------------

// Static state: capacities and fares. Fares are the per-shard forked-Rng
// probe — each owner shard draws from its own fork, in global flight order,
// so the assignment is a pure function of (seed, K) and identical on resume.
// Returns why the config breaks the hold-index packing limit, if it does:
// every hold slot a shard allocates is backed by a seat it owns (a flight's
// held + paid never exceeds its capacity).
[[nodiscard]] std::optional<std::string> init_static(World& w) {
  w.users.assign(w.cfg->users, UserState{});
  w.flights.assign(w.cfg->flights, FlightState{});
  std::vector<sim::Rng> forks;
  forks.reserve(w.shards.size());
  const sim::Rng root(w.cfg->seed);
  for (std::size_t k = 0; k < w.shards.size(); ++k) {
    forks.push_back(root.fork("shard/" + std::to_string(k)));
  }
  std::vector<std::uint64_t> seats(w.shards.size(), 0);
  for (std::uint64_t f = 0; f < w.cfg->flights; ++f) {
    const std::uint32_t fs = w.transport->flight_shard(f);
    FlightState& fl = w.flights[f];
    fl.capacity = w.cfg->seats_per_flight;
    fl.fare = static_cast<std::uint32_t>(forks[fs].uniform_int(50, 500));
    seats[fs] += fl.capacity;
  }
  for (std::size_t k = 0; k < seats.size(); ++k) {
    if (seats[k] > kMaxHoldsPerShard) {
      return "shard " + std::to_string(k) + " owns " + std::to_string(seats[k]) +
             " seats, over the " + std::to_string(kMaxHoldsPerShard) +
             "-hold packing limit per shard";
    }
  }
  return std::nullopt;
}

// Fresh-run only: first activity per user, in global id order.
void init_schedule(World& w) {
  const sim::SimDuration window = w.cfg->think_min + w.cfg->think_spread;
  for (std::uint64_t u = 0; u < w.cfg->users; ++u) {
    const std::uint64_t r = w.next_draw(u);
    const sim::SimTime t0 = 1 + static_cast<sim::SimTime>(
                                    r % static_cast<std::uint64_t>(std::max<sim::SimDuration>(
                                            window, 1)));
    if (t0 < w.cfg->horizon) schedule_activity(&w, u, t0);
  }
}

// --- Barrier work ------------------------------------------------------------

// Applies the epoch's collected graph ops to each shard's private graph, in
// shard order — on the main thread, where the thread_local fault registry
// (graph.ingest) is the armed one.
void apply_graph_ops(World& w) {
  for (auto& shard : w.shards) {
    ShardState& ss = *shard;
    for (const GraphOp& op : ss.graph_ops) {
      if (!ss.graph.begin_event(op.at)) continue;
      ++ss.counters.graph_events;
      const auto a = ss.graph.touch(op.at, detect::graph::NodeType::Session,
                                    "u" + std::to_string(op.user));
      const auto b = ss.graph.touch(op.at, detect::graph::NodeType::Booking,
                                    "f" + std::to_string(op.flight));
      ss.graph.connect(op.at, a, b);
      ss.graph.add_signal(op.at, a,
                          op.kind == 0 ? detect::graph::Signal::Holds
                                       : detect::graph::Signal::Pays,
                          1.0);
    }
    ss.graph_ops.clear();
  }
}

// --- Checkpoint --------------------------------------------------------------
//
// A restore point is one journal Checkpoint frame: the engine blob, then each
// shard's slice in shard order. Pending events travel as descriptors and are
// re-registered under their ORIGINAL ids, so the resumed queues drain in
// exactly the order the uninterrupted run would have used.

void checkpoint_shard(const World& w, const sim::ShardedSimulation& engine, std::uint32_t k,
                      const std::vector<std::uint64_t>& users,
                      const std::vector<std::uint64_t>& flights, util::ByteWriter& out) {
  const ShardState& ss = *w.shards[k];
  out.u64(ss.counters.activities);
  out.u64(ss.counters.holds);
  out.u64(ss.counters.denials);
  out.u64(ss.counters.pays);
  out.u64(ss.counters.pay_late);
  out.u64(ss.counters.expiries);
  out.u64(ss.counters.graph_events);

  out.u64(ss.holds.size());
  for (const HoldRec& h : ss.holds) {
    out.boolean(h.live);
    out.u32(h.gen);
    out.u64(h.user);
    out.u64(h.flight);
    out.u64(h.expiry_event);
    out.i64(h.expiry_at);
  }
  out.u64(ss.free_holds.size());
  for (const std::uint32_t idx : ss.free_holds) out.u32(idx);

  // Pay decisions scheduled but not yet fired. Rare (only grants landing in
  // the last pay_delay of an epoch leave one pending at a barrier) but losing
  // a single one forks the timeline, so they are first-class checkpoint state.
  out.u64(ss.pending_pays.size());
  for (const auto& [packed, ev] : ss.pending_pays) {
    out.u64(packed);
    out.u64(ev.first);
    out.i64(ev.second);
  }

  out.u64(users.size());
  for (const std::uint64_t u : users) {
    const UserState& s = w.users[u];
    out.u64(u);
    out.u64(s.draws);
    out.u64(s.pending_event);
    out.i64(s.pending_at);
    out.u32(s.holds);
    out.u32(s.denials);
    out.u32(s.pays);
  }
  out.u64(flights.size());
  for (const std::uint64_t f : flights) {
    out.u64(f);
    out.u32(w.flights[f].held);
    out.u32(w.flights[f].paid);
  }

  ss.graph.checkpoint(out);
  out.u64(engine.shard(k).queue().next_id());
}

[[nodiscard]] util::ByteWriter checkpoint_world(const World& w,
                                                const sim::ShardedSimulation& engine) {
  std::vector<std::vector<std::uint64_t>> users(engine.shards());
  std::vector<std::vector<std::uint64_t>> flights(engine.shards());
  for (std::uint64_t u = 0; u < w.cfg->users; ++u) users[w.transport->user_shard(u)].push_back(u);
  for (std::uint64_t f = 0; f < w.cfg->flights; ++f) {
    flights[w.transport->flight_shard(f)].push_back(f);
  }
  util::ByteWriter out;
  engine.checkpoint(out);
  for (std::uint32_t k = 0; k < engine.shards(); ++k) {
    checkpoint_shard(w, engine, k, users[k], flights[k], out);
  }
  return out;
}

// Decodes shard k's slice and re-registers its pending events. A CRC proves
// only that these are the bytes written, so every count is bounded by the
// bytes left and every id and index is checked; a defect fails `in`. `seen`
// counts the users and flights restored.
void restore_shard(World& w, sim::ShardedSimulation& engine, std::uint32_t k,
                   util::ByteReader& in, std::uint64_t& seen) {
  World* wp = &w;
  ShardState& ss = *w.shards[k];
  sim::EventQueue& queue = engine.shard(k).queue();
  sim::EventId max_id = 0;
  // Nothing pending is due before the barrier it was saved at, and no id is
  // pending twice.
  const auto restore_event = [&](sim::SimTime at, sim::EventId id, sim::EventFn fn) {
    if (at < engine.now() || !queue.restore_entry(at, id, std::move(fn))) in.fail();
    max_id = std::max(max_id, id);
  };
  ss.counters.activities = in.u64();
  ss.counters.holds = in.u64();
  ss.counters.denials = in.u64();
  ss.counters.pays = in.u64();
  ss.counters.pay_late = in.u64();
  ss.counters.expiries = in.u64();
  ss.counters.graph_events = in.u64();

  const std::uint64_t hold_count = in.count(1 + 4 + 4 * 8);
  if (hold_count > kMaxHoldsPerShard) in.fail();
  ss.holds.assign(in.ok() ? hold_count : 0, HoldRec{});
  std::uint64_t live = 0;
  for (std::uint64_t i = 0; i < ss.holds.size() && in.ok(); ++i) {
    HoldRec& h = ss.holds[i];
    h.live = in.boolean();
    h.gen = in.u32();
    h.user = in.u64();
    h.flight = in.u64();
    h.expiry_event = in.u64();
    h.expiry_at = in.i64();
    if (!h.live) continue;
    // A live hold sits on a flight this shard owns, for a user that exists.
    if (h.user >= w.users.size() || h.flight >= w.flights.size() ||
        w.transport->flight_shard(h.flight) != k) {
      in.fail();
    }
    ++live;
    const std::uint64_t packed = pack_expiry(k, i);
    restore_event(h.expiry_at, h.expiry_event, [wp, packed] { on_expiry(wp, packed); });
  }
  // The free list is exactly the dead slots, each once: alloc_hold hands out
  // its back, so a live or repeated entry would give one slot to two holds.
  const std::uint64_t free_count = in.count(4);
  if (free_count != ss.holds.size() - live) in.fail();
  ss.free_holds.assign(in.ok() ? free_count : 0, 0);
  std::vector<bool> freed(ss.holds.size(), false);
  for (std::uint32_t& idx : ss.free_holds) {
    idx = in.u32();
    if (!in.ok() || idx >= ss.holds.size() || ss.holds[idx].live || freed[idx]) {
      in.fail();
      return;
    }
    freed[idx] = true;
  }

  ss.pending_pays.clear();
  const std::uint64_t pay_count = in.count(3 * 8);
  for (std::uint64_t i = 0; i < pay_count && in.ok(); ++i) {
    const std::uint64_t packed = in.u64();
    const sim::EventId id = in.u64();
    const sim::SimTime at = in.i64();
    // A decision fires on its user's shard — this one — and names a flight
    // shard that exists; restore_world checks its hold index.
    if ((packed >> 52) != k || ((packed >> 40) & 0xFFF) >= w.shards.size() ||
        !ss.pending_pays.emplace(packed, std::make_pair(id, at)).second) {
      in.fail();
    }
    restore_event(at, id, [wp, packed] { on_pay_decision(wp, packed); });
  }

  // Owned users and flights arrive in strictly increasing id order, so none
  // repeats within a shard, and ownership keeps them apart across shards.
  const std::uint64_t user_count = in.count(4 * 8 + 3 * 4);
  for (std::uint64_t i = 0, prev = 0; i < user_count && in.ok(); ++i) {
    const std::uint64_t u = in.u64();
    if (u >= w.users.size() || w.transport->user_shard(u) != k || (i > 0 && u <= prev)) {
      in.fail();
      return;
    }
    prev = u;
    UserState& s = w.users[u];
    s.draws = in.u64();
    s.pending_event = in.u64();
    s.pending_at = in.i64();
    s.holds = in.u32();
    s.denials = in.u32();
    s.pays = in.u32();
    if (s.pending_event != 0) {
      restore_event(s.pending_at, s.pending_event, [wp, u] { on_activity(wp, u); });
    }
  }
  const std::uint64_t flight_count = in.count(8 + 2 * 4);
  for (std::uint64_t i = 0, prev = 0; i < flight_count && in.ok(); ++i) {
    const std::uint64_t f = in.u64();
    if (f >= w.flights.size() || w.transport->flight_shard(f) != k || (i > 0 && f <= prev)) {
      in.fail();
      return;
    }
    prev = f;
    w.flights[f].held = in.u32();
    w.flights[f].paid = in.u32();
  }
  seen += user_count + flight_count;

  ss.graph.restore(in);
  const sim::EventId next_id = in.u64();
  if (next_id <= max_id) in.fail();
  queue.set_next_id(next_id);
}

// Decodes a Checkpoint frame into a freshly built world and engine. On false
// both are half-restored and must be discarded.
[[nodiscard]] bool restore_world(World& w, sim::ShardedSimulation& engine,
                                 const journal::Record& frame) {
  util::ByteReader in(frame.fields);
  engine.restore(in);
  const sim::SimTime now = engine.now();
  const sim::SimDuration epoch = std::max<sim::SimDuration>(w.cfg->epoch, 1);
  // Restore points are cut only at barriers before the horizon, and barrier
  // b sits at b * epoch.
  if (!in.ok() || now != frame.time || now <= 0 || now >= w.cfg->horizon || now % epoch != 0 ||
      engine.barriers_run() != static_cast<std::uint64_t>(now / epoch)) {
    return false;
  }
  std::uint64_t seen = 0;
  for (std::uint32_t k = 0; k < engine.shards() && in.ok(); ++k) {
    restore_shard(w, engine, k, in, seen);
  }
  // Every user and flight restored once, and nothing after the last shard.
  if (!in.exhausted() || seen != w.users.size() + w.flights.size()) return false;
  for (const auto& shard : w.shards) {
    for (const auto& [packed, ev] : shard->pending_pays) {
      if (((packed >> 20) & 0xFFFFF) >= w.shards[(packed >> 40) & 0xFFF]->holds.size()) {
        return false;
      }
    }
  }
  return true;
}

// The newest Checkpoint frame of this config's journal at `path`. The reader
// drops a torn tail; a missing journal, mid-file corruption, another
// seed/config or no Checkpoint frame all mean there is nothing to resume.
[[nodiscard]] std::optional<journal::Record> newest_checkpoint(const std::string& path,
                                                               const ScaleConfig& cfg) {
  journal::JournalReader reader;
  if (!reader.open(path).is_ok() || reader.seed() != cfg.seed ||
      reader.config_digest() != cfg.digest()) {
    return std::nullopt;
  }
  const auto& records = reader.records();
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->kind == journal::RecordKind::Checkpoint) return *it;
  }
  return std::nullopt;
}

// --- Artifacts ---------------------------------------------------------------

[[nodiscard]] std::uint64_t state_digest(const World& w, std::uint64_t sent,
                                         std::uint64_t delivered) {
  std::uint64_t d = util::fnv1a("scale.v1");
  for (const UserState& u : w.users) {
    d = util::hash_combine(d, u.draws);
    d = util::hash_combine(d, (static_cast<std::uint64_t>(u.holds) << 32) | u.denials);
    d = util::hash_combine(d, u.pays);
  }
  for (const FlightState& f : w.flights) {
    d = util::hash_combine(d, (static_cast<std::uint64_t>(f.held) << 32) | f.paid);
    d = util::hash_combine(d, f.fare);
  }
  d = util::hash_combine(d, sent);
  d = util::hash_combine(d, delivered);
  return d;
}

struct EngineTotals {
  std::uint64_t fired = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t retries = 0;
  std::uint64_t barriers = 0;
  // Per shard, in shard order: fired / sent / delivered.
  std::vector<std::array<std::uint64_t, 3>> per_shard;
};

// One line per violation. Not render_report(): that report embeds the
// lifetime check counter, which a resumed run (whose registry only saw
// post-resume barriers) could not reproduce byte-for-byte.
[[nodiscard]] std::string render_violations(const std::vector<invariant::Violation>& violations) {
  if (violations.empty()) return "all invariants held\n";
  std::string out = std::to_string(violations.size()) + " invariant violation(s):\n";
  for (const auto& v : violations) out += "  " + v.render() + "\n";
  return out;
}

// The result of a config that breaks a closure-packing limit: nothing ran.
[[nodiscard]] ScaleArtifacts refuse(std::string why) {
  ScaleArtifacts art;
  const std::vector<invariant::Violation> violations{{"scale-packing-limits", std::move(why), 0}};
  art.invariant_violations = violations.size();
  art.invariant_report = render_violations(violations);
  art.report = art.invariant_report;
  return art;
}

[[nodiscard]] ScaleArtifacts build_artifacts(const World& w, const EngineTotals& totals,
                                             const invariant::InvariantRegistry& registry) {
  ScaleArtifacts art;
  ShardCounters sum;
  for (const auto& shard : w.shards) {
    const ShardCounters& c = shard->counters;
    sum.activities += c.activities;
    sum.holds += c.holds;
    sum.denials += c.denials;
    sum.pays += c.pays;
    sum.pay_late += c.pay_late;
    sum.expiries += c.expiries;
    sum.graph_events += c.graph_events;
  }
  art.events_fired = totals.fired;
  art.activities = sum.activities;
  art.holds = sum.holds;
  art.denials = sum.denials;
  art.pays = sum.pays;
  art.pay_late = sum.pay_late;
  art.expiries = sum.expiries;
  art.messages_sent = totals.sent;
  art.messages_delivered = totals.delivered;
  art.exchange_retries = totals.retries;
  art.barriers = totals.barriers;
  art.graph_events = sum.graph_events;
  art.state_digest = state_digest(w, totals.sent, totals.delivered);
  art.invariant_violations = registry.violations().size();
  art.invariant_report = render_violations(registry.violations());

  // Shards CSV: one row per shard. Serial runs emit their single row as
  // "shard 0" — byte-identical to the K=1 sharded run by construction.
  std::string csv = "shard,users,flights,fired,sent,delivered,holds,denials,pays,expiries\n";
  std::vector<std::uint64_t> users_on(w.shards.size(), 0);
  std::vector<std::uint64_t> flights_on(w.shards.size(), 0);
  for (std::uint64_t u = 0; u < w.cfg->users; ++u) ++users_on[w.transport->user_shard(u)];
  for (std::uint64_t f = 0; f < w.cfg->flights; ++f) ++flights_on[w.transport->flight_shard(f)];
  for (std::size_t k = 0; k < w.shards.size(); ++k) {
    const ShardCounters& c = w.shards[k]->counters;
    csv += std::to_string(k) + "," + std::to_string(users_on[k]) + "," +
           std::to_string(flights_on[k]) + "," + std::to_string(totals.per_shard[k][0]) + "," +
           std::to_string(totals.per_shard[k][1]) + "," +
           std::to_string(totals.per_shard[k][2]) + "," + std::to_string(c.holds) + "," +
           std::to_string(c.denials) + "," + std::to_string(c.pays) + "," +
           std::to_string(c.expiries) + "\n";
  }
  art.shards_csv = std::move(csv);

  // Graph CSV from the per-shard graphs merged at the horizon (the final
  // barrier) via the canonical partition, which makes the components a pure
  // function of the merged edge set, whatever the shard merge order.
  detect::graph::EntityGraph merged(scale_graph_config(*w.cfg));
  for (const auto& shard : w.shards) merged.merge_from(shard->graph, w.cfg->horizon);
  const detect::graph::GraphDetector detector(merged, {});
  std::string gcsv = "component,size,sessions,bookings,sharing,signal_mass,score,flagged\n";
  for (const auto& v : detector.scored_components(w.cfg->horizon)) {
    gcsv += std::to_string(v.summary.id) + "," + std::to_string(v.summary.size) + "," +
            std::to_string(v.summary.sessions) + "," + std::to_string(v.summary.bookings) +
            "," + util::format_fixed(v.sharing, 2) + "," +
            util::format_fixed(v.signal_mass, 4) + "," + util::format_fixed(v.score, 4) + "," +
            (v.flagged ? "1" : "0") + "\n";
  }
  art.graph_csv = std::move(gcsv);

  util::AsciiTable table({"metric", "value"});
  const auto row = [&table](const char* name, std::uint64_t v) {
    table.add_row({name, std::to_string(v)});
  };
  row("users", w.cfg->users);
  row("flights", w.cfg->flights);
  row("shards", w.shards.size());
  row("barriers", totals.barriers);
  row("events_fired", totals.fired);
  row("activities", sum.activities);
  row("holds", sum.holds);
  row("denials", sum.denials);
  row("pays", sum.pays);
  row("pay_late", sum.pay_late);
  row("expiries", sum.expiries);
  row("messages_sent", totals.sent);
  row("messages_delivered", totals.delivered);
  row("exchange_retries", totals.retries);
  row("graph_events", sum.graph_events);
  row("graph_nodes", merged.node_count());
  row("graph_edges", merged.edge_count());
  std::string report = table.render();
  report += "state_digest: " + std::to_string(art.state_digest) + "\n";
  report += art.invariant_report;
  art.report = std::move(report);
  return art;
}

}  // namespace

std::uint64_t ScaleConfig::digest() const {
  // Every field that changes behaviour — and NOT `threads`, which must not:
  // a digest mismatch across thread counts would be a determinism bug, not a
  // different configuration.
  std::uint64_t d = util::fnv1a("scale.config.v1");
  d = util::hash_combine(d, seed);
  d = util::hash_combine(d, users);
  d = util::hash_combine(d, flights);
  d = util::hash_combine(d, seats_per_flight);
  d = util::hash_combine(d, static_cast<std::uint64_t>(horizon));
  d = util::hash_combine(d, static_cast<std::uint64_t>(epoch));
  d = util::hash_combine(d, static_cast<std::uint64_t>(think_min));
  d = util::hash_combine(d, static_cast<std::uint64_t>(think_spread));
  d = util::hash_combine(d, static_cast<std::uint64_t>(hold_ttl));
  d = util::hash_combine(d, static_cast<std::uint64_t>(pay_delay));
  d = util::hash_combine(d, pay_percent);
  d = util::hash_combine(d, graph_sample);
  d = util::hash_combine(d, shards);
  return d;
}

ScaleArtifacts run_scale_serial(const ScaleConfig& cfg) {
  SerialTransport transport;
  World w;
  w.cfg = &cfg;
  w.transport = &transport;
  w.shards.push_back(std::make_unique<ShardState>(scale_graph_config(cfg)));
  if (auto overflow = init_static(w)) return refuse(*overflow);
  init_schedule(w);

  invariant::InvariantRegistry registry;
  // The serial mirror registers the same invariant NAMES over its (vacuous)
  // message accounting, so its report is byte-identical to a clean K=1 run.
  registry.add("shard-conservation",
               [](sim::SimTime) -> std::optional<std::string> { return std::nullopt; });
  sim::Simulation& s = transport.sim_;
  registry.add("shard-clock-alignment",
               [&s](sim::SimTime now) -> std::optional<std::string> {
                 if (s.now() != now) {
                   return "shard 0 clock at " + std::to_string(s.now()) + ", barrier at " +
                          std::to_string(now);
                 }
                 return std::nullopt;
               });

  std::uint64_t barriers = 0;
  sim::SimTime t = 0;
  while (t < cfg.horizon) {
    const sim::SimTime barrier = std::min<sim::SimTime>(t + std::max<sim::SimDuration>(cfg.epoch, 1),
                                                        cfg.horizon);
    s.run_before(barrier);
    apply_graph_ops(w);
    registry.check_all(barrier);
    t = barrier;
    ++barriers;
  }

  EngineTotals totals;
  totals.fired = s.fired_events();
  totals.barriers = barriers;
  totals.per_shard.push_back({s.fired_events(), 0, 0});
  return build_artifacts(w, totals, registry);
}

namespace {

// Shared core of run_scale_sharded / resume_scale_sharded.
ScaleArtifacts run_sharded_impl(const ScaleConfig& cfg, bool try_resume) {
  if (cfg.shards > kMaxShards) {
    return refuse("shards=" + std::to_string(cfg.shards) + " is over the " +
                  std::to_string(kMaxShards) + "-shard packing limit");
  }
  sim::ShardedSimulation::Config ecfg;
  ecfg.shards = std::max<std::uint32_t>(cfg.shards, 1);
  ecfg.epoch = std::max<sim::SimDuration>(cfg.epoch, 1);
  ecfg.threads = std::max(cfg.threads, 1u);
  ShardedTransport transport(ecfg);
  sim::ShardedSimulation& engine = transport.engine_;

  World w;
  w.cfg = &cfg;
  w.transport = &transport;
  for (std::uint32_t k = 0; k < engine.shards(); ++k) {
    w.shards.push_back(std::make_unique<ShardState>(scale_graph_config(cfg)));
  }
  if (auto overflow = init_static(w)) return refuse(*overflow);

  World* wp = &w;
  engine.set_message_handler(
      [wp](std::uint32_t dst, const sim::ShardMessage& msg) { on_message(wp, dst, msg); });
  engine.set_exchange_guard([](sim::SimTime now) {
    return fault::FaultRegistry::global().point("shard.exchange").should_fail(now);
  });

  invariant::InvariantRegistry registry;
  invariant::register_shard_invariants(registry, engine);

  // Resume from the journal's newest Checkpoint frame. A frame that passed its
  // CRC but does not decode has half-restored this world and engine, so both
  // are dropped for a fresh run.
  const std::string journal_path =
      (std::filesystem::path(cfg.out_dir) / recover::kJournalFilename).string();
  std::optional<journal::Record> anchor;
  if (try_resume && !cfg.out_dir.empty()) {
    anchor = newest_checkpoint(journal_path, cfg);
    if (anchor && !restore_world(w, engine, *anchor)) return run_sharded_impl(cfg, false);
  }
  if (!anchor) init_schedule(w);

  journal::JournalWriter journal;
  std::string journal_error;  // the first failed write; later ones only echo it
  const auto note = [&journal_error](const util::Status& s) {
    if (!s.is_ok() && journal_error.empty()) journal_error = s.error();
  };
  if (cfg.checkpoint_every > 0 && !cfg.out_dir.empty()) {
    // A failed write costs restore points, never results: the run goes on,
    // and every later barrier reports the failure as a violation.
    registry.add("checkpoint-journal", [&journal_error](sim::SimTime) {
      return journal_error.empty() ? std::nullopt : std::optional<std::string>(journal_error);
    });
    std::error_code ec;
    std::filesystem::create_directories(cfg.out_dir, ec);
    note(journal.open(journal_path, cfg.seed, cfg.digest()));
    // A resumed run's journal starts with its anchor, so a kill at any later
    // point still leaves a restore point at least that new.
    if (anchor && journal.is_open()) {
      util::ByteWriter fields;
      fields.raw(anchor->fields);
      note(journal.append(journal::RecordKind::Checkpoint, anchor->time, fields));
    }
  }

  engine.add_barrier_hook([&](sim::SimTime barrier) {
    apply_graph_ops(w);
    registry.check_all(barrier);
    if (journal.is_open() && engine.barriers_run() % cfg.checkpoint_every == 0 &&
        barrier < cfg.horizon) {
      note(journal.append(journal::RecordKind::Checkpoint, barrier, checkpoint_world(w, engine)));
    }
  });

  engine.run_until(cfg.horizon);

  EngineTotals totals;
  totals.fired = engine.fired_events();
  totals.sent = engine.messages_sent();
  totals.delivered = engine.messages_delivered();
  totals.retries = engine.exchange_retries();
  totals.barriers = engine.barriers_run();
  for (std::uint32_t k = 0; k < engine.shards(); ++k) {
    totals.per_shard.push_back({engine.shard(k).fired_events(), 0, 0});
  }
  // Per-shard sent/delivered split is not exposed by the engine; the CSV
  // carries the global columns on shard rows via per-shard sent only when
  // K == 1 (where they equal the totals).
  if (engine.shards() == 1) {
    totals.per_shard[0][1] = totals.sent;
    totals.per_shard[0][2] = totals.delivered;
  }
  return build_artifacts(w, totals, registry);
}

}  // namespace

ScaleArtifacts run_scale_sharded(const ScaleConfig& cfg) {
  return run_sharded_impl(cfg, /*try_resume=*/false);
}

ScaleArtifacts resume_scale_sharded(const ScaleConfig& cfg) {
  return run_sharded_impl(cfg, /*try_resume=*/true);
}

}  // namespace fraudsim::scenario
