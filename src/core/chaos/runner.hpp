// Chaos campaign runner: schedule × seed jobs against the full oracle stack.
//
// One chaos job = one recorded scenario run with a ChaosSchedule armed on top:
// dependency errors, latency spikes, flash crowds and at most one injected
// process crash. The job is judged by three oracles at once:
//
//   * the InvariantRegistry — every platform safety condition at every epoch
//     barrier plus end-of-run (faulted runs may diverge in OUTCOMES from a
//     clean run, but must never violate an invariant);
//   * crash recovery — when the schedule's crash fires, the torn run
//     directory must recover to a verified state (recover_run);
//   * replay consistency — the surviving journal must replay byte-identically
//     under the same re-armed fault posture (the differential twin: same
//     seed, same schedule, second execution).
//
// A failing (schedule, seed) pair is automatically shrunk with ddmin to a
// minimal entry subset that still fails, and persisted as a replayable
// chaos_repro artifact (see chaos.hpp) for offline debugging.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/chaos/chaos.hpp"
#include "core/invariant/invariant.hpp"
#include "core/scenario/replay_harness.hpp"

namespace fraudsim::chaos {

struct ChaosJobConfig {
  // The base scenario; the runner layers the schedule on top (invariants,
  // traffic phases and the planted-bug hook are overwritten).
  scenario::RecordedScenarioConfig scenario;
  ChaosSchedule schedule;
  // Crash-consistent run directory (journal, checkpoints, artifacts).
  std::string run_dir;
  // Deliberate invariant bug for oracle-sensitivity campaigns: when the
  // schedule arms BOTH trigger points (error scenarios on sms.carrier.send
  // and detect.sweep.run), a barrier hook force-holds an oversized ghost
  // party once, breaking seat conservation. Shrinking such a failure must
  // land on (a superset of) the two trigger entries.
  bool plant_oversell_bug = false;
};

struct ChaosJobResult {
  bool crashed = false;          // the schedule's crash entry fired
  bool recovered = false;        // recover_run restored a verified state
  bool replay_verified = false;  // journal replayed byte-identically
  bool replay_skipped = false;   // planted-bug runs mutate outside the journal
  std::uint64_t faults_injected = 0;
  std::uint64_t invariant_checks = 0;
  std::vector<invariant::Violation> violations;
  std::string error;  // empty unless the run or an oracle step failed hard

  // The pass criterion of a chaos campaign: no hard failure, no invariant
  // violation, and the replay oracle either verified or was knowingly
  // skipped.
  [[nodiscard]] bool passed() const {
    return error.empty() && violations.empty() && (replay_verified || replay_skipped);
  }
};

// Runs one schedule × scenario job under the full oracle stack. Owns the
// thread-local fault registry for its duration (ScopedFaultReset), so it can
// run on fleet workers or serially.
[[nodiscard]] ChaosJobResult run_chaos_job(const ChaosJobConfig& config);

// ddmin over schedule entries: returns a minimal (not necessarily minimum)
// sub-schedule for which `still_fails` holds. Deterministic: candidate order
// depends only on the input schedule. `still_fails` must hold for `failing`
// itself; it is re-invoked O(n^2) times worst case.
[[nodiscard]] ChaosSchedule shrink_schedule(
    const ChaosSchedule& failing, const std::function<bool(const ChaosSchedule&)>& still_fails);

// --- Campaigns --------------------------------------------------------------

struct ChaosCampaignConfig {
  scenario::RecordedScenarioConfig base;
  ChaosGeneratorConfig generator;
  // The campaign grid: every schedule seed crossed with every scenario seed.
  std::vector<std::uint64_t> schedule_seeds;
  std::vector<std::uint64_t> scenario_seeds;
  // Run directories and repro artifacts land under here.
  std::string work_dir;
  unsigned threads = 0;  // 0 = hardware concurrency (resolve_fleet_threads)
  bool plant_oversell_bug = false;
  // Passed jobs' run directories are deleted unless set (failures and their
  // shrink scratch always persist for post-mortem).
  bool keep_run_dirs = false;
  // ddmin failing schedules and write chaos_repro artifacts.
  bool shrink_failures = true;
};

struct ChaosCampaignReport {
  std::size_t jobs = 0;
  std::size_t passed = 0;
  std::size_t crashed = 0;
  std::size_t recovered = 0;
  std::size_t replay_verified = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t invariant_checks = 0;

  struct Failure {
    std::uint64_t schedule_seed = 0;
    std::uint64_t scenario_seed = 0;
    ChaosSchedule schedule;   // as drawn
    ChaosSchedule minimized;  // after ddmin (== schedule when shrinking off)
    std::vector<invariant::Violation> violations;
    std::string detail;
    std::string repro_path;  // written chaos_repro artifact ("" on write error)
  };
  std::vector<Failure> failures;  // job order

  [[nodiscard]] bool all_passed() const { return failures.empty(); }
  // Byte-stable ASCII summary for CLIs and bench gates.
  [[nodiscard]] std::string render() const;
};

// Runs the full grid on the fleet runner (deterministic reduction, per-worker
// fault registries), then serially shrinks each failure and writes its
// minimized reproducer to `<work_dir>/chaos_repro_<schedule>_<seed>.fsc`.
[[nodiscard]] ChaosCampaignReport run_chaos_campaign(const ChaosCampaignConfig& config);

}  // namespace fraudsim::chaos
