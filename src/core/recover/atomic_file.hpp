// Atomic artifact writes: the all-or-nothing half of crash consistency.
//
// Every run artifact (CSV exports, SOC reports, fleet result shards) goes to
// disk through AtomicFile::write: the content lands in `<name>.tmp`, is
// flushed, and only then renamed over the final name. A crash therefore
// leaves either the complete old state or a `.tmp` residue that recovery
// quarantines — never a half-written artifact under its final name. The
// artifact's size and CRC32 are returned so the caller can record them in the
// run manifest (the CRC lives there, not inside the artifact, so
// crash-injection-off runs stay byte-identical to earlier releases).
//
// Crash injection: each write consults two fault points —
//   crash.artifact.body    dies mid-`.tmp`: a torn prefix of the content is
//                          flushed before the SimCrash unwinds;
//   crash.artifact.rename  dies between flush and rename: the `.tmp` is
//                          complete but the final name never appears.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/time.hpp"
#include "util/result.hpp"

namespace fraudsim::recover {

inline constexpr char kTmpSuffix[] = ".tmp";

// What landed on disk: final path plus the size/CRC the manifest records.
struct WrittenArtifact {
  std::string path;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

class AtomicFile {
 public:
  // Writes `content` to `path + ".tmp"`, flushes, renames to `path`.
  // Throws fault::SimCrash when an armed crash point fires (after tearing
  // the in-flight bytes exactly as a kill would). `now` timestamps the
  // injected crash; pass the current sim time when available.
  static util::Result<WrittenArtifact> write(const std::string& path, std::string_view content,
                                             sim::SimTime now = 0);
};

}  // namespace fraudsim::recover
