#include "core/detect/name_patterns.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/strings.hpp"

namespace fraudsim::detect {

NamePatternAnalyzer::NamePatternAnalyzer(NamePatternConfig config) : config_(config) {}

std::set<std::string> NamePatternFindings::all_flagged() const {
  std::set<std::string> all;
  all.insert(gibberish.begin(), gibberish.end());
  all.insert(repeated_identity.begin(), repeated_identity.end());
  all.insert(birthdate_rotation.begin(), birthdate_rotation.end());
  all.insert(permuted_party.begin(), permuted_party.end());
  all.insert(misspelling_cluster.begin(), misspelling_cluster.end());
  return all;
}

namespace {

// One name key's passenger instances, also grouped by birthdate. The identity
// key is the name key plus "|" plus the birthdate, and a birthdate string
// never holds '|', so grouping by (name key, birthdate) is the same partition.
struct NameGroup {
  std::vector<const airline::Reservation*> reservations;
  std::unordered_map<std::string, std::vector<const airline::Reservation*>> by_birthdate;
};
using NameEntry = const std::pair<const std::string, NameGroup>;

// Orders name entries by key length, with every length within 1 of `len`
// equivalent to it: equal_range over a length-sorted vector then yields
// exactly the keys that can be one edit away.
struct WithinOneLength {
  bool operator()(NameEntry* e, std::size_t len) const { return e->first.size() + 1 < len; }
  bool operator()(std::size_t len, NameEntry* e) const { return len + 1 < e->first.size(); }
};

}  // namespace

NamePatternFindings NamePatternAnalyzer::analyze(
    const std::vector<const airline::Reservation*>& reservations) const {
  NamePatternFindings findings;

  // Pass 1: global aggregation, plus the per-reservation gibberish score.
  std::unordered_map<std::string, NameGroup> by_name_key;
  std::unordered_map<std::string, std::vector<const airline::Reservation*>> by_party_key;
  std::unordered_map<std::string_view, double> gibberish_by_name;
  std::size_t total_name_instances = 0;
  auto gibberish = [&](const std::string& name) {
    const auto [it, inserted] = gibberish_by_name.try_emplace(name, 0.0);
    if (inserted) it->second = util::gibberish_score(name);
    return it->second;
  };

  for (const auto* r : reservations) {
    std::vector<std::string_view> party;
    party.reserve(r->passengers.size());
    double total = 0.0;
    for (const auto& p : r->passengers) {
      auto& [key, group] = *by_name_key.try_emplace(p.name_key()).first;
      group.reservations.push_back(r);
      group.by_birthdate[p.birthdate.str()].push_back(r);
      party.push_back(key);
      ++total_name_instances;
      total += gibberish(p.first_name);
      total += gibberish(p.surname);
    }
    by_party_key[airline::party_key(std::move(party))].push_back(r);
    // Gibberish: per-reservation mean score over the party's names.
    const std::size_t n = 2 * r->passengers.size();
    if (n > 0 && total / static_cast<double>(n) >= config_.gibberish_threshold) {
      findings.gibberish.insert(r->pnr);
    }
  }
  const double share_floor =
      config_.name_share_threshold * static_cast<double>(total_name_instances);

  for (const auto& [key, group] : by_name_key) {
    (void)key;
    // Repeated identities: the same person (name AND birthdate) across many
    // distinct reservations — rare for genuine travellers within one window.
    for (const auto& [birthdate, rs] : group.by_birthdate) {
      (void)birthdate;
      if (rs.size() < config_.repeat_threshold) continue;
      for (const auto* r : rs) findings.repeated_identity.insert(r->pnr);
    }
    // Birthdate rotation: one NAME dominating the window while cycling
    // through many birthdates (Airline B's fixed-name signature). The share
    // floor keeps genuinely popular names from firing at airline scale.
    const auto& rs = group.reservations;
    if (rs.size() < config_.repeat_threshold) continue;
    if (static_cast<double>(rs.size()) < share_floor) continue;
    if (group.by_birthdate.size() >= config_.birthdate_variants) {
      for (const auto* r : rs) findings.birthdate_rotation.insert(r->pnr);
    }
  }

  // Permuted parties: the same multiset of people across many reservations.
  for (const auto& [key, rs] : by_party_key) {
    (void)key;
    if (rs.size() < config_.party_repeat_threshold) continue;
    for (const auto* r : rs) findings.permuted_party.insert(r->pnr);
  }

  // Misspelling clusters: name keys within edit distance 1 of a key that
  // repeats. Hand-typed variants land here even when exact repetition stays
  // below threshold. Only keys whose length is within 1 can qualify.
  std::vector<NameEntry*> by_length;
  by_length.reserve(by_name_key.size());
  for (const auto& entry : by_name_key) by_length.push_back(&entry);
  std::sort(by_length.begin(), by_length.end(), [](NameEntry* a, NameEntry* b) {
    return a->first.size() < b->first.size();
  });
  std::vector<NameEntry*> variants;
  for (NameEntry* entry : by_length) {
    const auto& [key, group] = *entry;
    if (group.reservations.size() < 2) continue;  // only cluster around names seen repeatedly
    std::size_t cluster = group.reservations.size();
    variants.clear();
    const auto [lo, hi] =
        std::equal_range(by_length.begin(), by_length.end(), key.size(), WithinOneLength{});
    for (auto it = lo; it != hi; ++it) {
      if (*it == entry || !util::within_edit_distance(key, (*it)->first, 1)) continue;
      cluster += (*it)->second.reservations.size();
      variants.push_back(*it);
    }
    if (variants.empty() || cluster < config_.misspell_cluster_size) continue;
    // Scale guard: distinct real people can carry near-identical names; a
    // hand-typed campaign's cluster dominates the window instead.
    if (static_cast<double>(cluster) < share_floor) continue;
    for (const auto* r : group.reservations) findings.misspelling_cluster.insert(r->pnr);
    for (NameEntry* v : variants) {
      for (const auto* r : v->second.reservations) findings.misspelling_cluster.insert(r->pnr);
    }
  }

  return findings;
}

void NamePatternAnalyzer::analyze(const std::vector<const airline::Reservation*>& reservations,
                                  AlertSink& sink) const {
  const auto findings = analyze(reservations);
  std::unordered_map<std::string_view, const airline::Reservation*> by_pnr;
  for (const auto* r : reservations) by_pnr[r->pnr] = r;

  auto emit = [&](const std::set<std::string>& pnrs, const char* signal) {
    for (const auto& pnr : pnrs) {
      const auto it = by_pnr.find(pnr);
      if (it == by_pnr.end()) continue;
      Alert alert;
      alert.time = it->second->created;
      alert.detector = std::string("name.") + signal;
      alert.severity = Severity::Warning;
      alert.explanation = std::string("identity pattern: ") + signal;
      alert.pnr = pnr;
      alert.fingerprint = it->second->source_fp;
      alert.ip = it->second->source_ip;
      alert.actor = it->second->actor;
      sink.emit(std::move(alert));
    }
  };
  emit(findings.gibberish, "gibberish");
  emit(findings.repeated_identity, "repeated");
  emit(findings.birthdate_rotation, "birthdate-rotation");
  emit(findings.permuted_party, "permuted-party");
  emit(findings.misspelling_cluster, "misspelling-cluster");
}

}  // namespace fraudsim::detect
