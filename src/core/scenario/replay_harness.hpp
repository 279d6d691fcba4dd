// Record/replay harness: checkpointed deterministic replay + shadow re-scoring.
//
// One scenario definition (seed, fleet, legitimate demand, a scripted
// seat-spin attacker, the mitigation loop) drives three modes:
//
//   * record_run    — run live with a RecordingJournal attached: every facade
//                     call, actor registration, housekeeping sweep and
//                     periodic state checkpoint lands in the journal file.
//   * replay_run    — rebuild the platform from (seed, config) and walk the
//                     journal: requests are re-executed against the real
//                     platform code and every outcome is verified against the
//                     recorded one. Replaying from t=0 or from the last
//                     embedded checkpoint reproduces the metrics snapshot,
//                     weblog CSV and SOC report byte-for-byte.
//   * shadow_rescore — feed the recorded traffic through an ALTERNATIVE rule
//                     configuration (the shadow SOC): no attacker or traffic
//                     model is re-simulated, and the verdict diff against the
//                     live run is scored with the journalled ground truth.
//
// The platform schedules no internal events of its own (expiry and
// mitigation sweeps are harness-driven and journalled as records), so a
// journal walk IS the complete event history: replay needs no event queue
// reconstruction, only `run_until(record.time)` between records.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/detect/graph/entity_graph.hpp"
#include "core/detect/graph/graph_detector.hpp"
#include "core/invariant/invariant.hpp"
#include "core/journal/journal.hpp"
#include "core/mitigate/controller.hpp"
#include "core/obs/metrics.hpp"
#include "core/recover/recovery.hpp"
#include "core/scenario/env.hpp"

namespace fraudsim::scenario {

struct RecordedScenarioConfig {
  std::uint64_t seed = 2024;
  sim::SimTime horizon = sim::days(2);
  int flights = 12;
  int capacity = 180;
  sim::SimTime departure = sim::days(10);

  // Legitimate background demand.
  bool legit_enabled = true;
  workload::LegitTrafficConfig legit;

  // Scripted seat-spin attacker: waves of bulk holds it never pays for,
  // rotating fingerprint + exit IP + session whenever a wave gets blocked.
  bool attacker_enabled = true;
  sim::SimTime attacker_start = sim::hours(6);
  sim::SimDuration attacker_period = sim::minutes(10);
  int attacker_party = 8;
  int attacker_holds_per_wave = 3;

  // Mitigation loop (harness-driven so sweeps land in the journal).
  bool mitigation_enabled = true;
  sim::SimTime controller_fit_at = sim::hours(6);
  mitigate::ControllerConfig controller;
  std::vector<mitigate::RateLimitSpec> rate_limits;
  mitigate::ChallengeMode challenge_mode = mitigate::ChallengeMode::Off;

  // Cadence of embedded state checkpoints (restore points).
  sim::SimDuration checkpoint_every = sim::hours(6);

  // Overload-control posture of the platform (off by default, the historical
  // shape). Digested only when enabled, so every pre-overload journal keeps
  // its digest.
  overload::OverloadConfig overload;

  // Incremental entity graph (off by default, the historical shape). When
  // enabled, every mode — record, replay, rescore, baseline — attaches a
  // GraphIngest tap to the application facade, so the graph is grown from the
  // identical event stream live and during replay; its state rides in every
  // checkpoint blob and the GraphDetector joins the detection pipeline.
  // Digested only when enabled, like the overload posture above.
  struct GraphSettings {
    bool enabled = false;
    detect::graph::GraphConfig graph;
    detect::graph::GraphDetectorConfig detector;
  };
  GraphSettings graph;

  // Extra flash-crowd phases of legitimate demand layered over the baseline
  // generator (chaos schedules use these to push the platform into brownout
  // mid-campaign). Live modes only: the surges' requests are journalled like
  // any other traffic, so replay reproduces them from the journal and the
  // phases stay out of the digest.
  struct TrafficPhase {
    sim::SimTime from = 0;
    sim::SimTime to = 0;
    double intensity = 4.0;  // multiplier on the baseline arrival rates
  };
  std::vector<TrafficPhase> traffic_phases;

  // Invariant oracle: when non-null, each live run resets the registry,
  // binds the standard platform invariants to its own application instance
  // (invariant::register_platform_invariants) and evaluates them at every
  // `invariant_barrier_every` epoch barrier plus once at end-of-run. Checks
  // are pure observers (no mutation, no randomness), so attaching the oracle
  // never changes what the run does — violations land in
  // RunArtifacts::violations. Replay modes ignore it; replay consistency is
  // the chaos runner's own oracle.
  invariant::InvariantRegistry* invariants = nullptr;
  sim::SimDuration invariant_barrier_every = sim::hours(1);
  // TESTING ONLY: runs at every barrier before the checks, live modes only.
  // Chaos planted-bug campaigns use it to corrupt state on purpose and prove
  // the oracle catches it; it is deliberately outside the journal, so a run
  // whose hook mutates state will NOT replay cleanly.
  std::function<void(app::Application&, sim::SimTime)> barrier_hook;
};

// Digest of everything that shapes the run (journal header field): a replay
// against a differently-shaped scenario is refused up front.
[[nodiscard]] std::uint64_t config_digest(const RecordedScenarioConfig& config);

// The run's exported artifacts, kept in memory so byte-identity is a string
// comparison. Record and replay build these through identical code paths.
struct RunArtifacts {
  std::string metrics_csv;  // obs::MetricsRegistry snapshot
  std::string weblog_csv;   // app::export_weblog_csv
  std::string soc_report;   // scenario::render_soc_report
  // The snapshot the CSV was rendered from, carried as a structured shard so
  // a fleet reduction can fold it via obs::MetricsRegistry::merge.
  obs::MetricsSnapshot metrics;
  // Invariant-oracle results (empty unless the config attached a registry).
  std::vector<invariant::Violation> violations;
  std::uint64_t invariant_checks = 0;
};

// Live run WITHOUT any journaling attached: the control for "recording off
// is byte-identical to recording on".
[[nodiscard]] RunArtifacts baseline_run(const RecordedScenarioConfig& config);

// Live run with recording; the journal lands at `journal_path`.
[[nodiscard]] util::Result<RunArtifacts> record_run(const RecordedScenarioConfig& config,
                                                    const std::string& journal_path);

struct ReplayOptions {
  // Restore the last embedded checkpoint and replay only the suffix instead
  // of walking the journal from t=0.
  bool from_last_checkpoint = false;
};

// Deterministic replay with outcome verification. Fails with
// kCheckpointMismatch on the first record whose replayed outcome differs
// from the recorded one, and with kJournalCorrupt on undecodable payloads.
[[nodiscard]] util::Result<RunArtifacts> replay_run(const RecordedScenarioConfig& config,
                                                    const std::string& journal_path,
                                                    ReplayOptions options = {});

// --- Crash-consistent run directories --------------------------------------
//
// record_run_dir is record_run with the full crash-consistency discipline:
// the journal (checkpoints embedded) lands at `<run_dir>/run.journal`, the
// CSV/SOC artifacts are written through recover::AtomicFile, and a CRC'd
// MANIFEST.fsm is written LAST as the commit point. When an armed crash point
// fires the partial state stays on disk exactly as a kill would leave it and
// the call fails with kCrashInjected.
[[nodiscard]] util::Result<RunArtifacts> record_run_dir(const RecordedScenarioConfig& config,
                                                        const std::string& run_dir);

struct RecoverOutcome {
  RunArtifacts artifacts;
  recover::RecoveryReport report;
  bool reused_complete_run = false;  // manifest intact: verified by replay only
  bool prefix_verified = false;      // salvaged journal byte-matched the re-record
};

// Startup recovery to a state byte-identical to an uninterrupted run:
// repair the directory (RecoveryManager), verify the salvaged journal prefix
// by replay from its newest intact Checkpoint frame, then deterministically
// re-record and prove the salvaged bytes are a prefix of the fresh journal.
// A directory whose manifest validates is not re-recorded — its journal is
// replay-verified instead.
[[nodiscard]] util::Result<RecoverOutcome> recover_run(const RecordedScenarioConfig& config,
                                                       const std::string& run_dir);

// A candidate configuration for offline evaluation.
struct RescoreCandidate {
  std::string name;
  // Applied to the freshly wired rule engine (add/replace rate limits, set
  // challenge mode, ...). Null = identical to the recorded configuration.
  std::function<void(mitigate::RuleEngine&)> configure_engine;
  // Optional controller replacement (detector thresholds, sweep cadence...).
  std::optional<mitigate::ControllerConfig> controller;
};

// Verdict diff of a shadow re-score against the recorded live decisions.
// "Denied" = Blocked/Challenged/RateLimited/Overloaded, or a hold absorbed
// by the honeypot decoy; everything that reached business logic is "served".
struct RescoreReport {
  std::uint64_t requests = 0;         // verdict-bearing records replayed
  std::uint64_t verdict_changes = 0;  // served/denied flips vs the live run
  std::uint64_t newly_caught = 0;         // abuser traffic the candidate denies
  std::uint64_t newly_missed = 0;         // abuser traffic the candidate now serves
  std::uint64_t newly_blocked_legit = 0;  // collateral: legit traffic now denied
  std::uint64_t newly_allowed_legit = 0;  // legit traffic the live run denied
};

// Feeds the recorded traffic through `candidate` without re-simulating any
// traffic source. Replays from t=0 (candidate state necessarily diverges, so
// checkpoints are unusable) and never fails on verdict differences — they
// are the product.
[[nodiscard]] util::Result<RescoreReport> shadow_rescore(const RecordedScenarioConfig& config,
                                                         const std::string& journal_path,
                                                         const RescoreCandidate& candidate);

// Renders a RescoreReport as a small fixed-order text block (CLI + bench).
[[nodiscard]] std::string render_rescore_report(const std::string& candidate_name,
                                                const RescoreReport& report);

}  // namespace fraudsim::scenario
