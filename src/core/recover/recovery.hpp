// Startup recovery for a (possibly interrupted) recorded-run directory.
//
// Run-directory layout (written by scenario::record_run_dir / fleet_sweep):
//
//   run.journal                 append-only FSJ1 traffic journal; its
//                               Checkpoint frames are the run's restore points
//   metrics.csv, weblog.csv,
//   soc_report.txt, ...         plain artifacts, CRCs recorded in the manifest
//   MANIFEST.fsm                CRC'd manifest, written LAST (the commit point)
//   quarantine/                 forensic residue moved aside by recovery
//
// RecoveryManager::repair() turns any crash residue into a verified state:
// `.tmp` files and CRC-bad artifacts are moved to quarantine/, a torn journal
// tail is truncated to the last good frame (tail bytes quarantined), and the
// newest intact Checkpoint frame in the salvaged journal is reported as the
// recovery anchor. A torn Checkpoint frame is just a torn tail: the anchor
// falls back to the previous intact one. What repair() cannot do is resume a
// live simulation mid-flight — traffic-generator closures are not
// checkpointable — so scenario::recover_run() finishes the job: it verifies
// the salvaged journal prefix by replay from that anchor, then re-records
// deterministically and proves the salvaged prefix byte-matches the fresh
// journal. The result is byte-identical to an uninterrupted run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/result.hpp"

namespace fraudsim::recover {

inline constexpr char kJournalFilename[] = "run.journal";
inline constexpr char kQuarantineDir[] = "quarantine";

// Everything scan()/repair() learned about the directory, renderable for the
// crash_drill CLI and SOC-style reports.
struct RecoveryReport {
  bool manifest_found = false;
  bool manifest_valid = false;
  bool run_complete = false;           // valid manifest and every artifact intact
  bool journal_found = false;
  bool journal_salvaged = false;       // an intact journal prefix survives
  bool journal_corrupt_mid_file = false;
  std::uint64_t frames_salvaged = 0;   // intact frames incl. Header
  std::uint64_t tail_bytes_quarantined = 0;
  std::vector<std::string> intact_artifacts;    // manifest-verified, relative paths
  std::vector<std::string> damaged_artifacts;   // missing or CRC-mismatched
  std::vector<std::string> quarantined;         // files moved to quarantine/ (relative)
  // Time of the newest intact Checkpoint frame in the salvaged journal: the
  // state a verification replay restores. Empty = replay from t=0.
  std::optional<sim::SimTime> last_checkpoint;

  [[nodiscard]] std::string render() const;
};

class RecoveryManager {
 public:
  explicit RecoveryManager(std::string run_dir);

  // Read-only assessment: what is intact, what is damaged, what repair()
  // would quarantine. Never modifies the directory.
  [[nodiscard]] util::Result<RecoveryReport> scan() const;

  // Destructive repair: quarantines `.tmp` residue and damaged artifacts,
  // truncates a torn journal tail (tail bytes to quarantine/run.journal.tail),
  // and reports the newest intact Checkpoint frame as the anchor.
  // After a successful repair every byte left outside quarantine/ is
  // verified. Idempotent: repairing a repaired directory changes nothing.
  [[nodiscard]] util::Result<RecoveryReport> repair() const;

  [[nodiscard]] const std::string& run_dir() const { return run_dir_; }

 private:
  [[nodiscard]] util::Result<RecoveryReport> run(bool mutate) const;

  std::string run_dir_;
};

}  // namespace fraudsim::recover
