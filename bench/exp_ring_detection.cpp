// RING: organized-abuse rings vs. per-entity detection (§IV-B / PAPERS.md,
// Grab's graph-based fraud detection).
//
// The campaign the paper's arms race converges on: N coordinated accounts,
// each individually under every per-entity threshold — small parties,
// plausible identities, paced requests, no automation artifacts — but
// economically forced to share a small pool of spoofed fingerprints,
// residential exits and tokenized cards. The per-entity detector matrix sees
// N quiet members; the entity graph (core/detect/graph) links the shared
// infrastructure into one component and the amplification rule flags the
// aggregate no member crossed.
//
// Shape gates, per base seed {101, 202, 303} (--smoke: 101 only, 5 h):
//   * graph.ring catches >= 80% of ring members;
//   * every OTHER detector family flags ZERO ring members (the ring is
//     invisible per-entity by construction);
//   * the graph stays inside its configured bounds.
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "attack/ring_orchestrator.hpp"
#include "core/bench/options.hpp"
#include "core/detect/graph/entity_graph.hpp"
#include "core/detect/graph/graph_detector.hpp"
#include "core/detect/graph/graph_ingest.hpp"
#include "core/detect/pipeline.hpp"
#include "core/scenario/env.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

using namespace fraudsim;

namespace {

struct SeedResult {
  std::size_t members = 0;
  std::size_t caught_by_graph = 0;   // members with >= 1 graph.ring alert
  std::size_t caught_by_others = 0;  // members flagged by any OTHER family
  double catch_rate = 0.0;
  std::size_t ring_alerts = 0;
  std::size_t flagged_components = 0;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t max_nodes = 0;
  std::size_t max_edges = 0;
  std::set<std::string> other_families;  // non-graph detectors that fired on members
  attack::RingStats ring;
};

SeedResult run_ring(std::uint64_t seed, bool smoke) {
  const sim::SimTime start = sim::hours(2);  // clean window for baselines
  const sim::SimTime horizon = smoke ? sim::hours(5) : sim::hours(10);

  scenario::EnvConfig env_config;
  env_config.seed = seed;
  env_config.legit.booking_sessions_per_hour = 40;
  env_config.legit.browse_sessions_per_hour = 30;
  env_config.legit.otp_logins_per_hour = 5;
  scenario::Env env(env_config);
  env.add_flights("R",
                  scenario::Env::fleet_size_for(env_config.legit.booking_sessions_per_hour,
                                                horizon, 150),
                  150, sim::days(10));

  // The inline subsystem under test: tap the admit path into the graph.
  detect::graph::EntityGraph graph;
  detect::graph::GraphIngest ingest(graph);
  env.app.set_tap(&ingest);

  attack::RingConfig ring_config;
  ring_config.start = start;
  attack::RingOrchestrator ring(env.app, env.actors, env.residential, env.population,
                                ring_config, env.rng.fork("ring"));

  env.start_background(horizon);
  ring.start(horizon);
  env.run_until(horizon);

  // The full detector matrix, every family armed, plus the graph detector.
  detect::DetectionPipeline pipeline;
  pipeline.fit_nip_baseline(env.app, 0, start);
  pipeline.fit_navigation(env.app, 0, start);
  pipeline.enable_ip_reputation(env.geo);
  pipeline.enable_graph(graph);
  const auto result = pipeline.run(env.app, env.actors, start, horizon);

  const std::set<web::ActorId> member_ids(ring.members().begin(), ring.members().end());
  std::set<web::ActorId> by_graph;
  std::set<web::ActorId> by_others;
  SeedResult out;
  for (const auto& alert : result.alerts.alerts()) {
    if (!alert.actor.has_value() || member_ids.count(*alert.actor) == 0) continue;
    if (alert.detector == "graph.ring") {
      ++out.ring_alerts;
      by_graph.insert(*alert.actor);
    } else {
      by_others.insert(*alert.actor);
      out.other_families.insert(alert.detector);
      if (std::getenv("RING_DEBUG") != nullptr && alert.session.has_value()) {
        for (const auto& s : result.sessions) {
          if (s.id != *alert.session) continue;
          std::string path;
          for (const auto& r : s.requests) path += std::string(web::endpoint_path(r.endpoint)) + " ";
          std::cout << "DEBUG " << alert.detector << " session " << s.id.str() << ": " << path
                    << "| " << alert.explanation << "\n";
        }
      }
    }
  }
  out.members = member_ids.size();
  out.caught_by_graph = by_graph.size();
  out.caught_by_others = by_others.size();
  out.catch_rate = out.members == 0
                       ? 0.0
                       : static_cast<double>(out.caught_by_graph) / static_cast<double>(out.members);

  const detect::graph::GraphDetector scorer(graph, pipeline.config().graph);
  for (const auto& verdict : scorer.scored_components(horizon)) {
    if (verdict.flagged) ++out.flagged_components;
  }
  out.nodes = graph.node_count();
  out.edges = graph.edge_count();
  out.max_nodes = graph.config().max_nodes;
  out.max_edges = graph.config().max_edges;
  out.ring = ring.stats();
  return out;
}

int run_shape(bool smoke) {
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{101} : std::vector<std::uint64_t>{101, 202, 303};
  std::cout << "Running the organized-ring campaign on " << seeds.size() << " seed(s) ("
            << (smoke ? 5 : 10) << " h each)...\n";
  std::vector<SeedResult> results;
  for (const auto seed : seeds) {
    results.push_back(run_ring(seed, smoke));
    std::cout << "  done: seed " << seed << "\n";
  }

  util::AsciiTable table({"Seed", "ring members", "caught (graph.ring)", "caught (others)",
                          "flagged comps", "graph nodes/edges"});
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const SeedResult& r = results[i];
    table.add_row({std::to_string(seeds[i]), std::to_string(r.members),
                   std::to_string(r.caught_by_graph) + " (" +
                       util::format_percent(r.catch_rate, 0) + ")",
                   std::to_string(r.caught_by_others), std::to_string(r.flagged_components),
                   std::to_string(r.nodes) + "/" + std::to_string(r.edges)});
  }
  std::cout << "\n=== RING: entity-graph vs per-entity detection ===\n" << table.render() << "\n";

  bool ok = true;
  auto expect = [&ok](bool cond, const std::string& what) {
    if (!cond) {
      std::cout << "SHAPE VIOLATION: " << what << "\n";
      ok = false;
    }
  };
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const SeedResult& r = results[i];
    const std::string tag = "seed " + std::to_string(seeds[i]) + ": ";
    expect(r.ring.requests > 0 && r.ring.holds_ok > 0, tag + "the ring actually operated");
    expect(r.catch_rate >= 0.8, tag + "graph.ring catches >= 80% of ring members");
    expect(r.flagged_components >= 1, tag + "at least one component crosses the bands");
    std::string families;
    for (const auto& f : r.other_families) families += " " + f;
    expect(r.caught_by_others == 0,
           tag + "no per-entity family flags a single ring member (invisible by construction);"
                 " fired:" + families);
    expect(r.nodes <= r.max_nodes && r.edges <= r.max_edges,
           tag + "the graph stays inside its configured bounds");
  }
  std::cout << (ok ? "RING SHAPE: OK\n" : "RING SHAPE: FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return run_shape(bench::Options::parse(argc, argv).smoke);
}
