// Entity graph (core/detect/graph): determinism, bounds and detection.
//
// The properties pinned here are the subsystem's contract:
//   * connected components are canonical — a pure function of the edge set,
//     with the smallest member id as the component id — and ASN hub nodes
//     never union (a busy /16 must not weld strangers together);
//   * hard caps hold under arbitrary churn (nodes, edges, component size) and
//     the conservation laws (live == created - evicted) with them;
//   * TTL maintenance retires idle entities, EWMAs decay with the configured
//     half-life;
//   * checkpoint/restore reproduces the exact state — intern ids, partition,
//     stats — byte-for-byte, mid-run and at rest, and rejects hostile frames
//     (huge counts, dead ids, bad types, dangling edges) with ok() false;
//   * the component detector flags a ring-shaped component but not diffuse
//     legitimate traffic, and one score_batch over N views is byte-identical
//     to the N one-view calls concatenated;
//   * with the graph enabled end-to-end, record -> replay -> resume stays
//     byte-identical, and with it disabled the artifacts keep the historical
//     shape (no component_id column).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/detect/detector.hpp"
#include "core/detect/graph/entity_graph.hpp"
#include "core/detect/graph/graph_detector.hpp"
#include "core/scenario/env.hpp"
#include "core/scenario/replay_harness.hpp"
#include "sim/rng.hpp"
#include "util/archive.hpp"
#include "util/intern.hpp"

namespace fraudsim {
namespace {

using detect::graph::ComponentSummary;
using detect::graph::EntityGraph;
using detect::graph::GraphConfig;
using detect::graph::GraphDetector;
using detect::graph::NodeType;
using detect::graph::Signal;

std::string checkpoint_bytes(const EntityGraph& graph) {
  util::ByteWriter out;
  graph.checkpoint(out);
  return out.bytes();
}

std::string render_alerts(const std::vector<detect::Alert>& alerts) {
  std::ostringstream out;
  for (const auto& a : alerts) {
    out << a.time << '|' << a.detector << '|' << detect::to_string(a.severity) << '|'
        << a.explanation;
    if (a.session) out << "|s=" << a.session->value();
    if (a.actor) out << "|actor=" << a.actor->value();
    out << '\n';
  }
  return out.str();
}

// --- Components -------------------------------------------------------------

TEST(EntityGraph, SharedEntityUnionsAndCanonicalIdIsSmallestMember) {
  EntityGraph graph;
  ASSERT_TRUE(graph.begin_event(0));
  const auto s1 = graph.touch(0, NodeType::Session, "s-1");
  const auto s2 = graph.touch(0, NodeType::Session, "s-2");
  const auto fp = graph.touch(0, NodeType::Fingerprint, "fp-a");
  EXPECT_EQ(graph.component_of(s1), s1);  // singleton: its own id
  graph.connect(0, s1, fp);
  graph.connect(0, s2, fp);
  EXPECT_EQ(graph.component_of(s1), graph.component_of(s2));
  EXPECT_EQ(graph.component_of(s1), std::min({s1, s2, fp}));
  EXPECT_EQ(graph.component_size(s2), 3u);

  const auto components = graph.components(0);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].sessions, 2u);
  EXPECT_EQ(components[0].fingerprints, 1u);
}

TEST(EntityGraph, AsnHubEdgesNeverUnion) {
  EntityGraph graph;
  const auto s1 = graph.touch(0, NodeType::Session, "s-1");
  const auto s2 = graph.touch(0, NodeType::Session, "s-2");
  const auto asn = graph.touch(0, NodeType::Asn, "10.0.0.0/16");
  graph.connect(0, s1, asn);
  graph.connect(0, s2, asn);
  // Both sessions hang off the same /16, yet stay separate components: the
  // hub edge is kept (SOC context) but excluded from the partition.
  EXPECT_EQ(graph.edge_count(), 2u);
  EXPECT_NE(graph.component_of(s1), graph.component_of(s2));
  EXPECT_EQ(graph.component_size(s1), 1u);

  // An exact shared entity still ties them.
  const auto ip = graph.touch(0, NodeType::Ip, "10.0.7.7");
  graph.connect(0, s1, ip);
  graph.connect(0, s2, ip);
  EXPECT_EQ(graph.component_of(s1), graph.component_of(s2));
}

TEST(EntityGraph, ComponentCapRefusesFurtherMerges) {
  GraphConfig config;
  config.component_cap = 4;
  EntityGraph graph(config);
  const auto fp = graph.touch(0, NodeType::Fingerprint, "fp");
  for (int i = 0; i < 10; ++i) {
    const auto s = graph.touch(0, NodeType::Session, "s-" + std::to_string(i));
    graph.connect(0, fp, s);
  }
  EXPECT_LE(graph.max_component_size(), 4u);
  EXPECT_GT(graph.unions_refused(), 0u);
}

// --- Bounds under churn ------------------------------------------------------

TEST(EntityGraph, CapsAndConservationHoldUnderChurn) {
  GraphConfig config;
  config.max_nodes = 32;
  config.max_edges = 48;
  config.node_ttl = sim::hours(2);
  config.edge_ttl = sim::hours(1);
  config.maintenance_every = sim::minutes(10);
  EntityGraph graph(config);

  sim::Rng rng(4242);
  sim::SimTime now = 0;
  for (int i = 0; i < 2000; ++i) {
    now += sim::seconds(30);
    if (!graph.begin_event(now)) continue;
    const auto s = graph.touch(now, NodeType::Session,
                               "s-" + std::to_string(rng.uniform_int(0, 199)));
    const auto fp = graph.touch(now, NodeType::Fingerprint,
                                "fp-" + std::to_string(rng.uniform_int(0, 49)));
    const auto ip =
        graph.touch(now, NodeType::Ip, "ip-" + std::to_string(rng.uniform_int(0, 99)));
    graph.connect(now, s, fp);
    graph.connect(now, s, ip);

    ASSERT_LE(graph.node_count(), config.max_nodes);
    ASSERT_LE(graph.edge_count(), config.max_edges);
    const auto& stats = graph.stats();
    ASSERT_EQ(stats.nodes_created - stats.nodes_evicted, graph.node_count());
    ASSERT_EQ(stats.edges_created - stats.edges_evicted, graph.edge_count());
  }
  EXPECT_GT(graph.stats().nodes_evicted, 0u);
  EXPECT_GT(graph.stats().maintenance_runs, 0u);

  // Idle long past every TTL: maintenance drains the graph completely, and
  // the conservation law still balances.
  graph.maintain(now + sim::hours(24));
  EXPECT_EQ(graph.node_count(), 0u);
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_EQ(graph.stats().nodes_created, graph.stats().nodes_evicted);
  EXPECT_EQ(graph.stats().edges_created, graph.stats().edges_evicted);
}

TEST(EntityGraph, TtlRetiresIdleEntities) {
  GraphConfig config;
  config.node_ttl = sim::hours(1);
  config.edge_ttl = sim::minutes(30);
  EntityGraph graph(config);
  const auto s = graph.touch(0, NodeType::Session, "s-1");
  const auto fp = graph.touch(0, NodeType::Fingerprint, "fp-1");
  graph.connect(0, s, fp);

  graph.maintain(sim::minutes(31));
  EXPECT_EQ(graph.edge_count(), 0u);  // edge TTL fires first
  EXPECT_TRUE(graph.alive(s));

  graph.maintain(sim::minutes(61));
  EXPECT_EQ(graph.find(NodeType::Session, "s-1"), 0u);
  EXPECT_EQ(graph.node_count(), 0u);
}

TEST(EntityGraph, SignalsDecayWithConfiguredHalfLife) {
  GraphConfig config;
  config.signal_half_life = sim::hours(2);
  EntityGraph graph(config);
  const auto s = graph.touch(0, NodeType::Session, "s-1");
  graph.add_signal(0, s, Signal::Requests, 8.0);

  const auto now = graph.components(0);
  ASSERT_EQ(now.size(), 1u);
  EXPECT_NEAR(now[0].signals[static_cast<std::size_t>(Signal::Requests)], 8.0, 1e-9);

  const auto later = graph.components(sim::hours(2));
  ASSERT_EQ(later.size(), 1u);
  EXPECT_NEAR(later[0].signals[static_cast<std::size_t>(Signal::Requests)], 4.0, 1e-9);
}

// --- Checkpoint / restore ----------------------------------------------------

TEST(EntityGraph, CheckpointRestoreRoundTripsByteForByte) {
  EntityGraph graph;
  const auto s1 = graph.touch(sim::minutes(1), NodeType::Session, "s-1");
  const auto s2 = graph.touch(sim::minutes(2), NodeType::Session, "s-2");
  const auto fp = graph.touch(sim::minutes(2), NodeType::Fingerprint, "fp-a");
  graph.connect(sim::minutes(2), s1, fp);
  graph.connect(sim::minutes(3), s2, fp);
  graph.add_signal(sim::minutes(3), s1, Signal::Holds, 2.0);
  // Exercise the intern free list: a dead id must come back dead.
  const auto doomed = graph.touch(sim::minutes(3), NodeType::Ip, "ip-dead");
  graph.maintain(sim::minutes(4));  // no-op aging, bumps maintenance stats
  EXPECT_TRUE(graph.alive(doomed));

  const std::string frame = checkpoint_bytes(graph);
  EntityGraph restored;
  util::ByteReader in(frame);
  restored.restore(in);

  EXPECT_EQ(checkpoint_bytes(restored), frame);
  EXPECT_EQ(restored.find(NodeType::Session, "s-1"), s1);
  EXPECT_EQ(restored.find(NodeType::Fingerprint, "fp-a"), fp);
  EXPECT_EQ(restored.component_of(s1), graph.component_of(s1));
  EXPECT_EQ(restored.component_of(s2), graph.component_of(s2));
  EXPECT_EQ(restored.stats().nodes_created, graph.stats().nodes_created);

  // The two instances continue identically: the next new key gets the same
  // intern id on both sides, and their checkpoints stay equal.
  const auto next_a = graph.touch(sim::minutes(5), NodeType::PaymentToken, "tok-1");
  const auto next_b = restored.touch(sim::minutes(5), NodeType::PaymentToken, "tok-1");
  EXPECT_EQ(next_a, next_b);
  EXPECT_EQ(checkpoint_bytes(restored), checkpoint_bytes(graph));
}

TEST(EntityGraph, MidRunRestoreContinuesIdentically) {
  GraphConfig config;
  config.max_nodes = 64;
  config.max_edges = 96;
  const auto drive = [](EntityGraph& graph, sim::Rng& rng, sim::SimTime& now, int ops) {
    for (int i = 0; i < ops; ++i) {
      now += sim::seconds(45);
      if (!graph.begin_event(now)) continue;
      const auto s = graph.touch(now, NodeType::Session,
                                 "s-" + std::to_string(rng.uniform_int(0, 99)));
      const auto fp = graph.touch(now, NodeType::Fingerprint,
                                  "fp-" + std::to_string(rng.uniform_int(0, 19)));
      graph.connect(now, s, fp);
      graph.add_signal(now, s, Signal::Requests, 1.0);
    }
  };

  EntityGraph original(config);
  sim::Rng rng(99);
  sim::SimTime now = 0;
  drive(original, rng, now, 500);

  EntityGraph resumed(config);
  const std::string mid = checkpoint_bytes(original);
  util::ByteReader in(mid);
  resumed.restore(in);

  // Identical op tail on both instances: the restored graph must be
  // indistinguishable from the one that never stopped.
  sim::Rng tail_rng = rng;
  sim::SimTime tail_now = now;
  drive(original, rng, now, 300);
  drive(resumed, tail_rng, tail_now, 300);
  EXPECT_EQ(checkpoint_bytes(resumed), checkpoint_bytes(original));
}

// Hostile restore frames, hand-written in the checkpoint layout: `keys` are
// interned as ids 1..n, then the given node and edge records, then stats.
struct NodeRecord {
  std::uint32_t id;
  std::uint8_t type;
};
struct EdgeRecord {
  std::uint32_t a;
  std::uint32_t b;
};

std::string graph_frame(const std::vector<std::string>& keys,
                        const std::vector<NodeRecord>& nodes,
                        const std::vector<EdgeRecord>& edges) {
  util::InternTable intern;
  for (const auto& key : keys) (void)intern.intern(key);
  util::ByteWriter out;
  intern.checkpoint(out);
  out.u64(nodes.size());
  for (const auto& n : nodes) {
    out.u32(n.id);
    out.u8(n.type);
    for (int i = 0; i < 3 + static_cast<int>(detect::graph::kSignalCount); ++i) out.u64(0);
  }
  out.u64(edges.size());
  for (const auto& e : edges) {
    out.u32(e.a);
    out.u32(e.b);
    out.i64(0);
  }
  for (int i = 0; i < 8; ++i) out.u64(0);  // seven stats counters + next maintenance
  return out.take();
}

bool restores(const std::string& frame) {
  EntityGraph graph;
  util::ByteReader in(frame);
  graph.restore(in);
  return in.ok();
}

TEST(EntityGraph, RestoreAcceptsTheHandWrittenFrameLayout) {
  const std::string frame = graph_frame({"s", "fp"}, {{1, 0}, {2, 1}}, {{1, 2}});
  EntityGraph graph;
  util::ByteReader in(frame);
  graph.restore(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_EQ(graph.component_of(2), graph.component_of(1));
}

TEST(EntityGraph, RestoreRejectsHugeCountsPromptly) {
  const auto started = std::chrono::steady_clock::now();
  for (int which = 0; which < 2; ++which) {
    util::ByteWriter out;
    util::InternTable().checkpoint(out);
    if (which == 1) out.u64(0);  // no nodes, then the hostile edge count
    out.u64(std::uint64_t{1} << 40);
    EXPECT_FALSE(restores(out.bytes())) << which;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - started, std::chrono::seconds(1));
}

TEST(EntityGraph, RestoreRejectsNodesThatAreNotLiveInternIds) {
  EXPECT_FALSE(restores(graph_frame({"s"}, {{0, 0}}, {})));
  EXPECT_FALSE(restores(graph_frame({"s"}, {{2, 0}}, {})));
  EXPECT_FALSE(restores(graph_frame({"s"}, {{1, 0}, {1, 0}}, {})));
}

TEST(EntityGraph, RestoreRejectsAnOutOfRangeNodeType) {
  const auto bad = static_cast<std::uint8_t>(NodeType::Booking) + 1;
  EXPECT_FALSE(restores(graph_frame({"s"}, {{1, static_cast<std::uint8_t>(bad)}}, {})));
}

TEST(EntityGraph, RestoreRejectsEdgesWhoseEndpointsAreNotLiveNodes) {
  // Key 3 is interned but carries no node record.
  const std::vector<std::string> keys = {"s", "fp", "ip"};
  const std::vector<NodeRecord> nodes = {{1, 0}, {2, 1}};
  EXPECT_FALSE(restores(graph_frame(keys, nodes, {{1, 3}})));
  EXPECT_FALSE(restores(graph_frame(keys, nodes, {{1, 9}})));
  EXPECT_FALSE(restores(graph_frame(keys, nodes, {{1, 1}})));
  EXPECT_FALSE(restores(graph_frame(keys, nodes, {{2, 1}})));  // not keyed (min, max)
  EXPECT_FALSE(restores(graph_frame(keys, nodes, {{1, 2}, {1, 2}})));
}

// --- GraphDetector -----------------------------------------------------------

// Hand-build a ring-shaped component (many sessions on a tiny shared pool,
// hefty hold mass) next to diffuse legitimate components.
void build_ring_world(EntityGraph& graph, std::vector<web::Session>& sessions) {
  const sim::SimTime now = sim::hours(1);
  const auto fp1 = graph.touch(now, NodeType::Fingerprint, "ring-fp-1");
  const auto fp2 = graph.touch(now, NodeType::Fingerprint, "ring-fp-2");
  const auto tok = graph.touch(now, NodeType::PaymentToken, "ring-tok");
  for (int i = 0; i < 12; ++i) {
    web::Session s;
    s.id = web::SessionId{1000u + static_cast<std::uint64_t>(i)};
    s.actor = web::ActorId{500u + static_cast<std::uint64_t>(i)};
    sessions.push_back(s);
    const auto node = graph.touch(now, NodeType::Session, s.id.str());
    graph.connect(now, node, i % 2 == 0 ? fp1 : fp2);
    graph.connect(now, node, tok);
    graph.add_signal(now, node, Signal::Holds, 2.0);
    graph.add_signal(now, node, Signal::Requests, 6.0);
  }
  // Legit: every session brings its own fingerprint and IP — no sharing.
  for (int i = 0; i < 6; ++i) {
    web::Session s;
    s.id = web::SessionId{2000u + static_cast<std::uint64_t>(i)};
    s.actor = web::ActorId{600u + static_cast<std::uint64_t>(i)};
    sessions.push_back(s);
    const auto node = graph.touch(now, NodeType::Session, s.id.str());
    graph.connect(now, node, graph.touch(now, NodeType::Fingerprint, "fp-" + s.id.str()));
    graph.connect(now, node, graph.touch(now, NodeType::Ip, "ip-" + s.id.str()));
    graph.add_signal(now, node, Signal::Requests, 3.0);
  }
}

TEST(GraphDetector, FlagsRingComponentNotDiffuseLegitTraffic) {
  EntityGraph graph;
  std::vector<web::Session> sessions;
  build_ring_world(graph, sessions);

  GraphDetector detector(graph);
  const auto verdicts = detector.scored_components(sim::hours(1));
  std::size_t flagged = 0;
  for (const auto& v : verdicts) {
    if (!v.flagged) continue;
    ++flagged;
    EXPECT_EQ(v.summary.sessions, 12u);
    EXPECT_EQ(v.summary.fingerprints, 2u);
    EXPECT_GE(v.sharing, detector.config().min_sharing);
    EXPECT_GE(v.signal_mass, detector.config().signal_threshold);
  }
  EXPECT_EQ(flagged, 1u);
}

// The graph detector has one kernel, score_batch. Scoring three epoch views
// in one call must equal scoring them one view per call, concatenated: the
// same alert bytes and the same per-view BatchScore numbers.
TEST(GraphDetector, BatchedScoringMatchesScalarAdapterByteForByte) {
  EntityGraph graph;
  std::vector<web::Session> sessions;
  build_ring_world(graph, sessions);

  scenario::EnvConfig env_config;
  env_config.seed = 7;
  scenario::Env env(env_config);
  std::vector<detect::RequestView> views;
  for (int epoch = 0; epoch < 3; ++epoch) {
    views.push_back(detect::RequestView{env.app, sim::hours(epoch), sim::hours(epoch + 1),
                                        sessions, sessions, 1});
  }

  GraphDetector per_view(graph);
  GraphDetector batched(graph);
  detect::AlertSink per_view_sink;
  detect::AlertSink batched_sink;
  std::vector<detect::BatchScore> per_view_scores(views.size());
  std::vector<detect::BatchScore> batched_scores(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    per_view.score_batch(std::span<const detect::RequestView>(&views[i], 1),
                         std::span<detect::BatchScore>(&per_view_scores[i], 1), per_view_sink);
  }
  batched.score_batch(views, batched_scores, batched_sink);

  EXPECT_GT(batched_sink.count(), 0u);
  EXPECT_EQ(render_alerts(batched_sink.alerts()), render_alerts(per_view_sink.alerts()));
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(batched_scores[i].sessions_scored, per_view_scores[i].sessions_scored);
    EXPECT_EQ(batched_scores[i].alerts, per_view_scores[i].alerts);
  }
}

// --- End-to-end determinism with the graph enabled ---------------------------

std::string tmp_path(const std::string& name) { return testing::TempDir() + name; }

scenario::RecordedScenarioConfig graph_config(std::uint64_t seed = 2024) {
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
  config.checkpoint_every = sim::hours(2);
  config.graph.enabled = true;
  return config;
}

TEST(GraphScenario, SameSeedRunsAreByteIdenticalWithGraphOn) {
  const auto config = graph_config();
  const auto a = scenario::record_run(config, tmp_path("graph-a.journal"));
  const auto b = scenario::record_run(config, tmp_path("graph-b.journal"));
  ASSERT_TRUE(a.has_value()) << a.error();
  ASSERT_TRUE(b.has_value()) << b.error();
  EXPECT_EQ(a.value().metrics_csv, b.value().metrics_csv);
  EXPECT_EQ(a.value().weblog_csv, b.value().weblog_csv);
  EXPECT_EQ(a.value().soc_report, b.value().soc_report);
  // The graph-on weblog carries the component attribution column.
  EXPECT_NE(a.value().weblog_csv.find("component_id"), std::string::npos);
}

TEST(GraphScenario, ReplayAndCheckpointResumeAreByteIdenticalWithGraphOn) {
  const auto config = graph_config(77);
  const std::string path = tmp_path("graph-replay.journal");
  const auto recorded = scenario::record_run(config, path);
  ASSERT_TRUE(recorded.has_value()) << recorded.error();

  const auto replayed = scenario::replay_run(config, path);
  ASSERT_TRUE(replayed.has_value()) << replayed.error();
  EXPECT_EQ(replayed.value().metrics_csv, recorded.value().metrics_csv);
  EXPECT_EQ(replayed.value().weblog_csv, recorded.value().weblog_csv);
  EXPECT_EQ(replayed.value().soc_report, recorded.value().soc_report);

  // Resume from the embedded checkpoint: the restored graph must continue
  // exactly where the original left off (intern ids, partition, EWMAs).
  scenario::ReplayOptions from_checkpoint;
  from_checkpoint.from_last_checkpoint = true;
  const auto resumed = scenario::replay_run(config, path, from_checkpoint);
  ASSERT_TRUE(resumed.has_value()) << resumed.error();
  EXPECT_EQ(resumed.value().metrics_csv, recorded.value().metrics_csv);
  EXPECT_EQ(resumed.value().weblog_csv, recorded.value().weblog_csv);
  EXPECT_EQ(resumed.value().soc_report, recorded.value().soc_report);
}

TEST(GraphScenario, GraphOffKeepsHistoricalArtifactShape) {
  auto config = graph_config(55);
  config.graph.enabled = false;
  const auto off = scenario::record_run(config, tmp_path("graph-off.journal"));
  ASSERT_TRUE(off.has_value()) << off.error();
  // No component column, no component section: the pre-graph artifact shape.
  EXPECT_EQ(off.value().weblog_csv.find("component_id"), std::string::npos);
  EXPECT_EQ(off.value().soc_report.find("suspicious components"), std::string::npos);
}

}  // namespace
}  // namespace fraudsim
