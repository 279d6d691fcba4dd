// Knowledge-based (fingerprint) detection (§III-B).
//
// Four detectors mirroring the techniques the paper reviews:
//   * ArtifactDetector     — navigator.webdriver / headless tells
//   * ConsistencyDetector  — impossible attribute combinations
//   * RarityDetector       — fingerprints never seen in the population
//   * FingerprintBlocklist — operational blocking built from incidents;
//                            the thing rotation defeats
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "app/fp_store.hpp"
#include "core/detect/alert.hpp"
#include "fingerprint/consistency.hpp"
#include "web/session.hpp"

namespace fraudsim::detect {

// Session sets of a multi-epoch batch: one session list per epoch view. The
// fingerprint-knowledge verdict of a hash is epoch-independent, so the
// batched analyzers judge every stored fingerprint once and replay the
// verdict against each epoch's sessions.
using SessionSets = std::span<const std::vector<web::Session>* const>;

class ArtifactDetector {
 public:
  [[nodiscard]] bool is_bot(const fp::Fingerprint& fingerprint, std::string* reason) const;
  // One is_bot pass over the store serves every session set: each set gets
  // one alert per flagged stored fingerprint, keyed to a session of that set
  // carrying it when there is one.
  void analyze_many(const app::FingerprintStore& store, SessionSets session_sets,
                    AlertSink& sink, std::vector<std::size_t>* alerts_per_set = nullptr) const;
};

class ConsistencyDetector {
 public:
  explicit ConsistencyDetector(double min_score = 0.3);
  [[nodiscard]] bool is_bot(const fp::Fingerprint& fingerprint, std::string* reason) const;
  // The consistency rule set runs once per stored fingerprint, not once per
  // (fingerprint, set); alerts as ArtifactDetector::analyze_many.
  void analyze_many(const app::FingerprintStore& store, SessionSets session_sets,
                    AlertSink& sink, std::vector<std::size_t>* alerts_per_set = nullptr) const;

 private:
  fp::ConsistencyChecker checker_;
  double min_score_;
};

// Flags fingerprints whose population frequency is below `rare_frequency`
// despite `min_observations` sightings (one-off fingerprints are normal; a
// busy client with a never-seen-before stack is what stands out).
class RarityDetector {
 public:
  RarityDetector(double rare_frequency = 1e-4, std::uint64_t min_observations = 30);
  // Emits one alert per busy-but-rare stored fingerprint, `repeats` times
  // (once per epoch view). Rarity is window-independent, so the store is
  // scanned once and the alert list replayed.
  void analyze_repeated(const app::FingerprintStore& store, std::size_t repeats, AlertSink& sink,
                        std::vector<std::size_t>* alerts_per_repeat = nullptr) const;
  [[nodiscard]] bool is_rare(const app::FingerprintStore& store, fp::FpHash hash) const;

 private:
  double rare_frequency_;
  std::uint64_t min_observations_;
};

// Operational blocklist. The mitigation controller adds hashes here; the
// rule engine consults it at ingress. Tracks when each hash was added and
// when it last matched so rotation dynamics can be measured.
class FingerprintBlocklist {
 public:
  void block(fp::FpHash hash, sim::SimTime when, std::string reason);
  [[nodiscard]] bool contains(fp::FpHash hash) const;
  void note_hit(fp::FpHash hash, sim::SimTime when);

  struct Entry {
    sim::SimTime added = 0;
    sim::SimTime last_hit = -1;
    std::string reason;
    std::uint64_t hits = 0;
  };
  [[nodiscard]] const std::unordered_map<fp::FpHash, Entry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  // How long each blocked fingerprint kept appearing after being blocked
  // (last_hit - added), hours; the effectiveness window of each rule.
  [[nodiscard]] std::vector<double> effectiveness_windows_hours() const;

  // Checkpoint support.
  void checkpoint(util::ByteWriter& out) const;
  void restore(util::ByteReader& in);

 private:
  std::unordered_map<fp::FpHash, Entry> entries_;
};

}  // namespace fraudsim::detect
