#include "core/recover/recovery.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "core/journal/journal.hpp"
#include "core/recover/atomic_file.hpp"
#include "core/recover/manifest.hpp"

namespace fraudsim::recover {

namespace fs = std::filesystem;

std::string RecoveryReport::render() const {
  std::ostringstream out;
  out << "recovery report\n";
  out << "  run complete:    " << (run_complete ? "yes" : "no") << "\n";
  out << "  manifest:        "
      << (!manifest_found ? "missing" : manifest_valid ? "valid" : "corrupt (quarantined)")
      << "\n";
  out << "  journal:         ";
  if (!journal_found) {
    out << "missing\n";
  } else if (journal_corrupt_mid_file) {
    out << "corrupt mid-file (quarantined whole)\n";
  } else {
    out << (journal_salvaged ? "salvaged" : "unusable") << ", " << frames_salvaged
        << " frames intact";
    if (tail_bytes_quarantined > 0) {
      out << ", " << tail_bytes_quarantined << " torn tail bytes quarantined";
    }
    out << "\n";
  }
  out << "  checkpoint:      "
      << (last_checkpoint ? "journal frame @ " + sim::format_time(*last_checkpoint)
                          : std::string("none (replay from t=0)"))
      << "\n";
  out << "  artifacts:       " << intact_artifacts.size() << " intact, "
      << damaged_artifacts.size() << " damaged\n";
  for (const auto& a : damaged_artifacts) out << "    damaged: " << a << "\n";
  for (const auto& q : quarantined) out << "    quarantined: " << q << "\n";
  return out.str();
}

RecoveryManager::RecoveryManager(std::string run_dir) : run_dir_(std::move(run_dir)) {}

util::Result<RecoveryReport> RecoveryManager::scan() const { return run(/*mutate=*/false); }
util::Result<RecoveryReport> RecoveryManager::repair() const { return run(/*mutate=*/true); }

util::Result<RecoveryReport> RecoveryManager::run(bool mutate) const {
  using R = util::Result<RecoveryReport>;
  const fs::path root(run_dir_);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    return R::fail(util::ErrorCode::kNotFound, "recovery: no run directory " + run_dir_);
  }

  RecoveryReport report;
  const fs::path quarantine = root / kQuarantineDir;

  // Moves `rel` (relative to the run dir) into quarantine/, preserving the
  // relative layout. Records the move either way so scan() previews it.
  const auto quarantine_file = [&](const std::string& rel) {
    report.quarantined.push_back(rel);
    if (!mutate) return;
    const fs::path dest = quarantine / rel;
    std::error_code move_ec;
    fs::create_directories(dest.parent_path(), move_ec);
    fs::rename(root / rel, dest, move_ec);
  };

  // Deterministic directory listing: sorted file names. A run writes no
  // subdirectory besides quarantine/, which is never rescanned.
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (entry.is_regular_file()) files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());

  // 1. `.tmp` residue: a crash between open and rename. Always quarantined.
  for (const auto& rel : files) {
    if (rel.size() > 4 && rel.compare(rel.size() - 4, 4, kTmpSuffix) == 0) {
      quarantine_file(rel);
    }
  }

  // 2. Manifest: decides whether this directory is a completed run.
  const std::string manifest_path = (root / kManifestFilename).string();
  auto manifest = Manifest::load(manifest_path);
  if (manifest) {
    report.manifest_found = true;
    report.manifest_valid = true;
    const ManifestAudit audit = audit_artifacts(manifest.value(), run_dir_);
    report.intact_artifacts = audit.intact;
    report.damaged_artifacts = audit.missing;
    for (const auto& rel : audit.mismatched) {
      report.damaged_artifacts.push_back(rel);
      quarantine_file(rel);
    }
    std::sort(report.damaged_artifacts.begin(), report.damaged_artifacts.end());
    report.run_complete = audit.clean();
  } else if (manifest.code() == util::ErrorCode::kManifestMismatch) {
    report.manifest_found = true;
    quarantine_file(kManifestFilename);
  }

  // 3. Journal: truncate a torn tail to the last good frame; mid-file
  // corruption (or a destroyed header) voids the file entirely.
  const std::string journal_path = (root / kJournalFilename).string();
  auto scanned = journal::scan_journal(journal_path);
  if (scanned || scanned.code() == util::ErrorCode::kJournalCorrupt) {
    report.journal_found = true;
  }
  if (scanned) {
    const journal::JournalScan& scan = scanned.value();
    report.frames_salvaged = scan.frames;
    report.journal_salvaged = scan.has_header && !scan.corrupt_mid_file;
    report.journal_corrupt_mid_file = scan.corrupt_mid_file;
    report.last_checkpoint = scan.last_checkpoint;
    if (scan.corrupt_mid_file || (!scan.has_header && scan.frames == 0 && scan.torn_tail)) {
      // Unrecoverable at frame level (even the header is gone): keep the
      // whole file for forensics, recovery falls back to a full re-record.
      report.journal_salvaged = false;
      report.frames_salvaged = 0;
      report.last_checkpoint.reset();
      quarantine_file(kJournalFilename);
    } else if (scan.torn_tail && !report.run_complete) {
      report.tail_bytes_quarantined = scan.tail_bytes();
      if (mutate) {
        const fs::path tail = quarantine / (std::string(kJournalFilename) + ".tail");
        std::error_code dir_ec;
        fs::create_directories(quarantine, dir_ec);
        auto repaired = journal::truncate_torn_tail(journal_path, tail.string());
        if (!repaired) return R::fail(repaired.code(), repaired.error());
        report.quarantined.push_back(std::string(kJournalFilename) + ".tail");
      }
    }
  } else if (scanned.code() == util::ErrorCode::kJournalCorrupt) {
    // Not even the magic survived.
    report.journal_corrupt_mid_file = true;
    quarantine_file(kJournalFilename);
  }

  return R::ok(std::move(report));
}

}  // namespace fraudsim::recover
