#include <gtest/gtest.h>

#include <map>
#include <set>

#include "fingerprint/population.hpp"

#include "attack/identity_gen.hpp"
#include "core/detect/behavior.hpp"
#include "core/detect/fingerprint_detect.hpp"
#include "core/detect/labels.hpp"
#include "core/detect/name_patterns.hpp"
#include "core/detect/nip_anomaly.hpp"
#include "core/detect/sms_anomaly.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"
#include "workload/names.hpp"

namespace fraudsim::detect {
namespace {

web::Session make_session(std::uint64_t id, std::uint64_t actor, int requests,
                          sim::SimDuration gap, web::Endpoint endpoint = web::Endpoint::SearchFlights) {
  web::Session s;
  s.id = web::SessionId{id};
  s.actor = web::ActorId{actor};
  for (int i = 0; i < requests; ++i) {
    web::HttpRequest r;
    r.time = i * gap;
    r.session = s.id;
    r.actor = s.actor;
    r.endpoint = endpoint;
    s.requests.push_back(r);
  }
  return s;
}

// --- Volume thresholds -------------------------------------------------------------

TEST(VolumeDetector, FlagsScraperVolume) {
  VolumeThresholdDetector detector;
  const auto scraper = make_session(1, 1, 300, sim::seconds(2));
  std::string reason;
  EXPECT_TRUE(detector.is_bot(web::extract_features(scraper), &reason));
  EXPECT_FALSE(reason.empty());
}

TEST(VolumeDetector, MissesLowVolumeDoISession) {
  // A seat-spin bot session: a handful of requests at human-ish pace — the
  // §III-A blind spot.
  VolumeThresholdDetector detector;
  const auto doi = make_session(2, 2, 6, sim::seconds(35), web::Endpoint::HoldReservation);
  std::string reason;
  EXPECT_FALSE(detector.is_bot(web::extract_features(doi), &reason));
}

TEST(VolumeDetector, FlagsMachinePacing) {
  VolumeThresholdDetector detector;
  const auto fast = make_session(3, 3, 25, sim::seconds(1));
  EXPECT_TRUE(detector.is_bot(web::extract_features(fast), nullptr));
}

TEST(VolumeDetector, TrapFileIsInstantFlag) {
  VolumeThresholdDetector detector;
  auto s = make_session(4, 4, 3, sim::seconds(30));
  s.requests.push_back(s.requests.back());
  s.requests.back().endpoint = web::Endpoint::TrapFile;
  EXPECT_TRUE(detector.is_bot(web::extract_features(s), nullptr));
}

TEST(VolumeDetector, AnalyzeEmitsAlertsWithKeys) {
  VolumeThresholdDetector detector;
  AlertSink sink;
  detector.analyze({make_session(5, 9, 300, sim::seconds(1))}, sink);
  ASSERT_EQ(sink.count(), 1u);
  const auto& alert = sink.alerts().front();
  EXPECT_EQ(alert.detector, "behavior.volume");
  EXPECT_EQ(alert.actor, web::ActorId{9});
  EXPECT_EQ(alert.session, web::SessionId{5});
}

// --- Behaviour classifier -------------------------------------------------------------

TEST(BehaviorClassifier, LearnsScraperVsHuman) {
  std::vector<web::SessionFeatures> features;
  std::vector<int> labels;
  sim::Rng rng(1);
  for (int i = 0; i < 150; ++i) {
    features.push_back(web::extract_features(make_session(
        static_cast<std::uint64_t>(i), 1, static_cast<int>(rng.uniform_int(4, 15)),
        sim::seconds(rng.uniform_int(15, 60)))));
    labels.push_back(0);
    features.push_back(web::extract_features(make_session(
        static_cast<std::uint64_t>(1000 + i), 2, static_cast<int>(rng.uniform_int(150, 400)),
        sim::seconds(1) + rng.uniform_int(0, 1500))));
    labels.push_back(1);
  }
  for (auto kind : {ClassifierKind::Logistic, ClassifierKind::NaiveBayes}) {
    BehaviorClassifier classifier(kind);
    classifier.train(features, labels, rng);
    EXPECT_TRUE(classifier.trained());
    const auto human = web::extract_features(make_session(1, 1, 8, sim::seconds(30)));
    const auto scraper = web::extract_features(make_session(2, 2, 250, sim::seconds(1)));
    EXPECT_FALSE(classifier.is_bot(human)) << static_cast<int>(kind);
    EXPECT_TRUE(classifier.is_bot(scraper)) << static_cast<int>(kind);
  }
}

// --- Fingerprint detectors -----------------------------------------------------------

TEST(ArtifactDetector, FlagsWebdriverAndHeadless) {
  ArtifactDetector detector;
  fp::Fingerprint fp;
  std::string reason;
  EXPECT_FALSE(detector.is_bot(fp, &reason));
  fp.webdriver_flag = true;
  EXPECT_TRUE(detector.is_bot(fp, &reason));
  fp.webdriver_flag = false;
  fp.headless_hint = true;
  EXPECT_TRUE(detector.is_bot(fp, &reason));
}

TEST(RarityDetector, FlagsBusyRareFingerprints) {
  app::FingerprintStore store;
  fp::PopulationModel population;
  sim::Rng rng(2);
  // A large population of normal users.
  for (int i = 0; i < 20000; ++i) store.observe(population.sample(rng));
  // One odd stack hammering the site.
  fp::Fingerprint odd;
  odd.browser = fp::Browser::Other;
  odd.screen_width = 801;
  fp::derive_rendering_hashes(odd);
  for (int i = 0; i < 100; ++i) store.observe(odd);

  // 100 / 20100 observations ~ 0.5%: busy, yet far rarer than any popular
  // stack (the heaviest configurations carry several percent each).
  RarityDetector detector(0.01, 30);
  EXPECT_TRUE(detector.is_rare(store, odd.hash()));
  AlertSink sink;
  detector.analyze_repeated(store, 1, sink);
  bool found = false;
  for (const auto& a : sink.alerts()) {
    if (a.fingerprint == odd.hash()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RarityDetector, IgnoresOneOffFingerprints) {
  app::FingerprintStore store;
  fp::Fingerprint once;
  once.screen_width = 999;
  fp::derive_rendering_hashes(once);
  store.observe(once);
  RarityDetector detector(1e-3, 30);
  EXPECT_FALSE(detector.is_rare(store, once.hash()));
}

TEST(Blocklist, TracksEffectivenessWindows) {
  FingerprintBlocklist blocklist;
  const fp::FpHash h{123};
  blocklist.block(h, sim::hours(10), "test");
  EXPECT_TRUE(blocklist.contains(h));
  EXPECT_FALSE(blocklist.contains(fp::FpHash{456}));
  blocklist.note_hit(h, sim::hours(12));
  blocklist.note_hit(h, sim::hours(15));  // last sighting 5h after the rule
  const auto windows = blocklist.effectiveness_windows_hours();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_NEAR(windows[0], 5.0, 1e-9);
  EXPECT_EQ(blocklist.entries().at(h).hits, 2u);
}

TEST(Blocklist, NeverHitRulesExcludedFromWindows) {
  FingerprintBlocklist blocklist;
  blocklist.block(fp::FpHash{1}, 0, "preemptive");
  EXPECT_TRUE(blocklist.effectiveness_windows_hours().empty());
}

// --- NiP anomaly -------------------------------------------------------------------------

std::vector<airline::Reservation> make_reservations(
    const std::vector<std::pair<int, int>>& nip_counts, sim::SimTime at, sim::Rng& rng) {
  std::vector<airline::Reservation> out;
  int pnr = 0;
  for (const auto& [nip, count] : nip_counts) {
    for (int i = 0; i < count; ++i) {
      airline::Reservation r;
      r.pnr = "P" + std::to_string(pnr++) + "@" + std::to_string(at);
      r.created = at + (pnr % 1000);
      for (int p = 0; p < nip; ++p) {
        r.passengers.push_back(workload::random_passenger(rng));
      }
      r.actor = web::ActorId{static_cast<std::uint64_t>(100 + nip)};
      out.push_back(std::move(r));
    }
  }
  return out;
}

TEST(NipAnomaly, QuietWeekIsNormal) {
  sim::Rng rng(3);
  auto baseline = make_reservations({{1, 540}, {2, 290}, {3, 75}, {4, 45}, {5, 22}, {6, 13}},
                                    0, rng);
  auto week = make_reservations({{1, 530}, {2, 300}, {3, 70}, {4, 50}, {5, 20}, {6, 12}},
                                sim::kWeek, rng);
  NipAnomalyDetector detector;
  detector.fit_baseline(baseline, 0, sim::kWeek);
  std::vector<airline::Reservation> all = baseline;
  all.insert(all.end(), week.begin(), week.end());
  const auto verdict = detector.evaluate_window(all, sim::kWeek, 2 * sim::kWeek);
  EXPECT_FALSE(verdict.anomalous);
}

TEST(NipAnomaly, AttackWaveAtNipSixFires) {
  sim::Rng rng(4);
  auto baseline = make_reservations({{1, 540}, {2, 290}, {3, 75}, {4, 45}, {5, 22}, {6, 13}},
                                    0, rng);
  auto attack = make_reservations({{1, 540}, {2, 290}, {3, 75}, {4, 45}, {5, 22}, {6, 400}},
                                  sim::kWeek, rng);
  NipAnomalyDetector detector;
  detector.fit_baseline(baseline, 0, sim::kWeek);
  std::vector<airline::Reservation> all = baseline;
  all.insert(all.end(), attack.begin(), attack.end());
  const auto verdict = detector.evaluate_window(all, sim::kWeek, 2 * sim::kWeek);
  ASSERT_TRUE(verdict.anomalous);
  ASSERT_EQ(verdict.anomalous_nips.size(), 1u);
  EXPECT_EQ(verdict.anomalous_nips.front(), 6);

  AlertSink sink;
  const NipAnomalyDetector::Window window{sim::kWeek, 2 * sim::kWeek};
  detector.analyze_windows(all, {&window, 1}, sink);
  // One summary alert + one per flagged reservation.
  EXPECT_GT(sink.count(), 300u);
  std::size_t with_pnr = 0;
  for (const auto& a : sink.alerts()) {
    if (a.pnr) ++with_pnr;
  }
  EXPECT_EQ(with_pnr, 400u);
}

TEST(NipAnomaly, SmallWindowsAreNotJudged) {
  sim::Rng rng(5);
  auto baseline = make_reservations({{1, 500}, {2, 300}}, 0, rng);
  auto tiny = make_reservations({{6, 10}}, sim::kWeek, rng);
  NipAnomalyDetector detector;
  detector.fit_baseline(baseline, 0, sim::kWeek);
  std::vector<airline::Reservation> all = baseline;
  all.insert(all.end(), tiny.begin(), tiny.end());
  EXPECT_FALSE(detector.evaluate_window(all, sim::kWeek, 2 * sim::kWeek).anomalous);
}

// --- Name patterns -----------------------------------------------------------------------

airline::Reservation reservation_with(const std::vector<airline::Passenger>& party,
                                      const std::string& pnr, std::uint64_t actor = 1) {
  airline::Reservation r;
  r.pnr = pnr;
  r.passengers = party;
  r.actor = web::ActorId{actor};
  return r;
}

// The analyzer takes a pointer view of the window it judges.
std::vector<const airline::Reservation*> pointers(
    const std::vector<airline::Reservation>& reservations) {
  std::vector<const airline::Reservation*> out;
  out.reserve(reservations.size());
  for (const auto& r : reservations) out.push_back(&r);
  return out;
}

TEST(NamePatterns, FlagsGibberishParties) {
  std::vector<airline::Reservation> reservations;
  reservations.push_back(reservation_with(
      {{"affjgdui", "ddfjrei", {1990, 1, 1}, "x@y.example"}}, "GIB001"));
  sim::Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    reservations.push_back(
        reservation_with({workload::random_passenger(rng)}, "OK" + std::to_string(i)));
  }
  NamePatternAnalyzer analyzer;
  const auto findings = analyzer.analyze(pointers(reservations));
  EXPECT_TRUE(findings.gibberish.contains("GIB001"));
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(findings.gibberish.contains("OK" + std::to_string(i)));
  }
}

TEST(NamePatterns, FlagsBirthdateRotation) {
  // Airline B: fixed first passenger name, rotating birthdate. Mixed with
  // background traffic — the rotating name still dominates its share.
  std::vector<airline::Reservation> reservations;
  for (int i = 0; i < 8; ++i) {
    airline::Passenger lead{"Ivan", "Petrov", {1985, 3, 1 + i}, "i@p.example"};
    reservations.push_back(reservation_with({lead}, "ROT" + std::to_string(i)));
  }
  sim::Rng rng(21);
  for (int i = 0; i < 40; ++i) {
    reservations.push_back(
        reservation_with({workload::random_passenger(rng)}, "BG" + std::to_string(i)));
  }
  NamePatternAnalyzer analyzer;
  const auto findings = analyzer.analyze(pointers(reservations));
  EXPECT_EQ(findings.birthdate_rotation.size(), 8u);
  // Distinct birthdates = distinct identities, so the repeated-identity
  // signal stays silent here; birthdate rotation is the right detector.
  EXPECT_TRUE(findings.repeated_identity.empty());
}

TEST(NamePatterns, FlagsRepeatedFullIdentity) {
  // The same person (name AND birthdate) across many reservations.
  std::vector<airline::Reservation> reservations;
  const airline::Passenger person{"Ivan", "Petrov", {1985, 3, 7}, "i@p.example"};
  for (int i = 0; i < 5; ++i) {
    reservations.push_back(reservation_with({person}, "REP" + std::to_string(i)));
  }
  NamePatternAnalyzer analyzer;
  const auto findings = analyzer.analyze(pointers(reservations));
  EXPECT_EQ(findings.repeated_identity.size(), 5u);
}

TEST(NamePatterns, PopularNamesDoNotRotateAtScale) {
  // Many DIFFERENT travellers legitimately named "James Smith": distinct
  // birthdates, but the name is a tiny share of a big window -> no flag.
  sim::Rng rng(22);
  std::vector<airline::Reservation> reservations;
  for (int i = 0; i < 6; ++i) {
    airline::Passenger p{"James", "Smith", airline::random_birthdate(rng), "j@s.example"};
    reservations.push_back(reservation_with({p}, "JS" + std::to_string(i)));
  }
  for (int i = 0; i < 3000; ++i) {
    reservations.push_back(
        reservation_with({workload::random_passenger(rng)}, "BGX" + std::to_string(i)));
  }
  NamePatternAnalyzer analyzer;
  const auto findings = analyzer.analyze(pointers(reservations));
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(findings.birthdate_rotation.contains("JS" + std::to_string(i)));
  }
}

TEST(NamePatterns, FlagsPermutedFixedSet) {
  // Airline C: same people, different order across bookings.
  const airline::Passenger a{"Lena", "Koch", {1990, 1, 1}, ""};
  const airline::Passenger b{"Max", "Braun", {1991, 2, 2}, ""};
  const airline::Passenger c{"Tom", "Vogel", {1992, 3, 3}, ""};
  std::vector<airline::Reservation> reservations;
  reservations.push_back(reservation_with({a, b, c}, "PERM1"));
  reservations.push_back(reservation_with({c, a, b}, "PERM2"));
  reservations.push_back(reservation_with({b, c, a}, "PERM3"));
  reservations.push_back(reservation_with({a, c, b}, "PERM4"));
  NamePatternAnalyzer analyzer;
  const auto findings = analyzer.analyze(pointers(reservations));
  EXPECT_EQ(findings.permuted_party.size(), 4u);
}

TEST(NamePatterns, FlagsMisspellingClusters) {
  // The same surname with hand-typo variants across bookings.
  std::vector<airline::Reservation> reservations;
  reservations.push_back(reservation_with({{"Anna", "Martinez", {1990, 1, 1}, ""}}, "MS1"));
  reservations.push_back(reservation_with({{"Anna", "Martinez", {1990, 1, 1}, ""}}, "MS2"));
  reservations.push_back(reservation_with({{"Anna", "Martines", {1990, 1, 1}, ""}}, "MS3"));
  reservations.push_back(reservation_with({{"Anna", "Martinex", {1990, 1, 1}, ""}}, "MS4"));
  NamePatternAnalyzer analyzer;
  const auto findings = analyzer.analyze(pointers(reservations));
  EXPECT_GE(findings.misspelling_cluster.size(), 4u);
}

TEST(NamePatterns, CleanTrafficStaysClean) {
  sim::Rng rng(7);
  std::vector<airline::Reservation> reservations;
  for (int i = 0; i < 200; ++i) {
    reservations.push_back(reservation_with(workload::random_party(rng, 2),
                                            "CLEAN" + std::to_string(i)));
  }
  NamePatternAnalyzer analyzer;
  const auto findings = analyzer.analyze(pointers(reservations));
  // Pool collisions can produce a few repeats, but the flag rate stays tiny.
  EXPECT_LT(findings.all_flagged().size(), 20u);
  EXPECT_TRUE(findings.gibberish.empty());
}

// A 900-reservation window: legitimate parties mixed with hand-typed
// misspelling clusters around three names, birthdate rotation, gibberish and
// a permuted fixed set (itself misspelled now and then).
std::vector<airline::Reservation> mixed_identity_window() {
  sim::Rng rng(2025);
  attack::IdentityGenerator rotation(
      {attack::IdentityRegime::FixedNameRotatingBirthdate, 6, 0.0, 8}, sim::Rng(11));
  attack::IdentityGenerator gibberish({attack::IdentityRegime::Gibberish, 6, 0.0, 8}, sim::Rng(12));
  attack::IdentityGenerator permuted({attack::IdentityRegime::PermutedFixedSet, 5, 0.2, 8},
                                     sim::Rng(13));
  const std::vector<airline::Passenger> typed = {{"Anna", "Martinez", {1990, 1, 1}, ""},
                                                 {"Jonas", "Lindqvist", {1984, 6, 12}, ""},
                                                 {"Mei", "Tanaka", {1979, 11, 30}, ""}};
  std::vector<airline::Reservation> window;
  for (int i = 0; i < 900; ++i) {
    std::vector<airline::Passenger> party;
    const auto kind = rng.uniform_int(0, 19);
    if (kind < 13) {
      party = workload::random_party(rng, static_cast<int>(rng.uniform_int(1, 4)));
    } else if (kind < 15) {
      airline::Passenger p = typed[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      if (rng.uniform() < 0.6) p.surname = workload::misspell(rng, p.surname);
      if (rng.uniform() < 0.3) p.first_name = workload::misspell(rng, p.first_name);
      party.push_back(p);
    } else if (kind < 17) {
      party = rotation.make_party(static_cast<int>(rng.uniform_int(1, 3)));
    } else if (kind < 18) {
      party = gibberish.make_party(static_cast<int>(rng.uniform_int(1, 2)));
    } else {
      party = permuted.make_party(3);
    }
    auto r = reservation_with(party, "W" + std::to_string(1000 + i),
                              100 + static_cast<std::uint64_t>(kind));
    r.created = i * sim::kMinute;
    r.source_fp = fp::FpHash{0x5000u + static_cast<std::uint64_t>(i % 97)};
    r.source_ip = net::IpV4{0x0A000000u + static_cast<std::uint32_t>(i % 61)};
    window.push_back(std::move(r));
  }
  return window;
}

// The analyzer's rules written the direct way: ordered maps, string keys
// built per use, and a misspelling search over every pair of name keys
// through the full Levenshtein distance.
NamePatternFindings all_pairs_reference(const std::vector<airline::Reservation>& reservations,
                                        const NamePatternConfig& config) {
  NamePatternFindings f;
  std::map<std::string, std::vector<const airline::Reservation*>> by_name;
  std::map<std::string, std::vector<const airline::Reservation*>> by_identity;
  std::map<std::string, std::vector<const airline::Reservation*>> by_party;
  std::map<std::string, std::set<std::string>> birthdates;
  std::size_t instances = 0;
  for (const auto& r : reservations) {
    double total = 0.0;
    for (const auto& p : r.passengers) {
      by_name[p.name_key()].push_back(&r);
      by_identity[p.identity_key()].push_back(&r);
      birthdates[p.name_key()].insert(p.birthdate.str());
      ++instances;
      total += util::gibberish_score(p.first_name);
      total += util::gibberish_score(p.surname);
    }
    by_party[airline::party_key(r.passengers)].push_back(&r);
    const double n = 2.0 * static_cast<double>(r.passengers.size());
    if (n > 0 && total / n >= config.gibberish_threshold) f.gibberish.insert(r.pnr);
  }
  const double floor = config.name_share_threshold * static_cast<double>(instances);
  auto flag = [](std::set<std::string>& out, const std::vector<const airline::Reservation*>& rs) {
    for (const auto* r : rs) out.insert(r->pnr);
  };
  for (const auto& [key, rs] : by_identity) {
    if (rs.size() >= config.repeat_threshold) flag(f.repeated_identity, rs);
  }
  for (const auto& [key, rs] : by_name) {
    if (rs.size() >= config.repeat_threshold && static_cast<double>(rs.size()) >= floor &&
        birthdates[key].size() >= config.birthdate_variants) {
      flag(f.birthdate_rotation, rs);
    }
  }
  for (const auto& [key, rs] : by_party) {
    if (rs.size() >= config.party_repeat_threshold) flag(f.permuted_party, rs);
  }
  for (const auto& [key, rs] : by_name) {
    if (rs.size() < 2) continue;
    std::size_t cluster = rs.size();
    std::vector<const std::vector<const airline::Reservation*>*> variants;
    for (const auto& [other, others] : by_name) {
      if (other == key || util::levenshtein(key, other) > 1) continue;
      cluster += others.size();
      variants.push_back(&others);
    }
    if (variants.empty() || cluster < config.misspell_cluster_size ||
        static_cast<double>(cluster) < floor) {
      continue;
    }
    flag(f.misspelling_cluster, rs);
    for (const auto* v : variants) flag(f.misspelling_cluster, *v);
  }
  return f;
}

std::uint64_t alert_stream_digest(const AlertSink& sink) {
  std::uint64_t digest = util::fnv1a("");
  for (const auto& a : sink.alerts()) {
    std::string line = std::to_string(a.time) + "|" + a.detector + "|" +
                       std::to_string(static_cast<int>(a.severity)) + "|" + a.explanation + "|" +
                       a.pnr.value_or("-") + "|" +
                       (a.fingerprint ? a.fingerprint->str() : "-") + "|" +
                       (a.ip ? std::to_string(a.ip->value()) : "-") + "|" +
                       (a.actor ? a.actor->str() : "-") + "|" +
                       (a.session ? a.session->str() : "-") + "\n";
    digest = util::fnv1a_append(digest, line);
  }
  return digest;
}

TEST(NamePatterns, MatchesTheAllPairsReferenceOnAMixedWindow) {
  const auto window = mixed_identity_window();
  const NamePatternAnalyzer analyzer;
  const auto got = analyzer.analyze(pointers(window));
  const auto want = all_pairs_reference(window, analyzer.config());
  EXPECT_EQ(got.gibberish, want.gibberish);
  EXPECT_EQ(got.repeated_identity, want.repeated_identity);
  EXPECT_EQ(got.birthdate_rotation, want.birthdate_rotation);
  EXPECT_EQ(got.permuted_party, want.permuted_party);
  EXPECT_EQ(got.misspelling_cluster, want.misspelling_cluster);
  // Every signal fires on this window, so all five comparisons bite.
  EXPECT_FALSE(want.gibberish.empty());
  EXPECT_FALSE(want.repeated_identity.empty());
  EXPECT_FALSE(want.birthdate_rotation.empty());
  EXPECT_FALSE(want.permuted_party.empty());
  EXPECT_FALSE(want.misspelling_cluster.empty());
}

TEST(NamePatterns, PointerViewAlertStreamIsPinned) {
  // The count and digest were taken from the alert stream of the earlier
  // overload that took the window by value, on the same window.
  const auto window = mixed_identity_window();
  AlertSink sink;
  NamePatternAnalyzer().analyze(pointers(window), sink);
  EXPECT_EQ(sink.count(), 461u);
  EXPECT_EQ(alert_stream_digest(sink), 0x814fb05e563a2e92ull);
}

// --- SMS anomaly ---------------------------------------------------------------------------

class SmsAnomalyTest : public ::testing::Test {
 protected:
  SmsAnomalyTest()
      : network_(sms::TariffTable::standard(), sms::CarrierPolicy{}),
        gateway_(network_, sms::GatewayConfig{}) {}

  void send_daily(net::CountryCode country, int per_day, int days, sim::SimTime from,
                  const char* pnr = nullptr) {
    for (int d = 0; d < days; ++d) {
      for (int i = 0; i < per_day; ++i) {
        gateway_.send(from + d * sim::kDay + i * sim::kMinute,
                      sms::PhoneNumber{country, "123456789"}, sms::SmsType::BoardingPass,
                      web::ActorId{1}, pnr ? std::optional<std::string>(pnr) : std::nullopt);
      }
    }
  }

  sms::CarrierNetwork network_;
  sms::SmsGateway gateway_;
};

TEST_F(SmsAnomalyTest, CountrySurgesRankByIncreaseThenVolume) {
  const net::CountryCode uz{'U', 'Z'};
  const net::CountryCode gb{'G', 'B'};
  // Baseline week: GB busy, UZ silent. Attack week: UZ explodes, GB grows 50%.
  send_daily(gb, 20, 7, 0);
  send_daily(gb, 30, 7, sim::kWeek);
  send_daily(uz, 300, 7, sim::kWeek);

  SmsAnomalyDetector detector;
  const auto surges = detector.country_surges(gateway_, 0, sim::kWeek, sim::kWeek,
                                              2 * sim::kWeek, sms::SmsType::BoardingPass);
  ASSERT_EQ(surges.size(), 2u);
  EXPECT_EQ(surges[0].country, uz);
  // UZ: 300/day against the 0.05/day floor -> enormous but finite.
  EXPECT_GT(surges[0].surge_fraction, 1000.0);
  EXPECT_LT(surges[0].surge_fraction, 1e6);
  EXPECT_EQ(surges[1].country, gb);
  EXPECT_NEAR(surges[1].surge_fraction, 0.5, 0.05);
}

TEST_F(SmsAnomalyTest, PathLimitTripsAtTheRightMoment) {
  SmsAnomalyConfig config;
  config.path_daily_limit = 100;
  SmsAnomalyDetector detector(config);
  // 90/day: never trips.
  send_daily(net::CountryCode{'F', 'R'}, 90, 2, 0);
  EXPECT_FALSE(detector.path_limit_trip_time(gateway_).has_value());
  // A sustained day-2 burst (one per minute, 150 total) crosses 100 within
  // the rolling day.
  send_daily(net::CountryCode{'F', 'R'}, 150, 1, 2 * sim::kDay);
  const auto trip = detector.path_limit_trip_time(gateway_);
  ASSERT_TRUE(trip.has_value());
  EXPECT_GE(*trip, 2 * sim::kDay);
  EXPECT_LT(*trip, 3 * sim::kDay);
}

TEST_F(SmsAnomalyTest, PerBookingLimitCatchesRepeats) {
  SmsAnomalyConfig config;
  config.per_booking_limit = 5;
  SmsAnomalyDetector detector(config);
  // Five sends on one PNR: at the limit, no trip.
  send_daily(net::CountryCode{'U', 'Z'}, 5, 1, 0, "AAA111");
  EXPECT_FALSE(detector.per_booking_trip_time(gateway_).has_value());
  // The sixth send trips it.
  send_daily(net::CountryCode{'U', 'Z'}, 1, 1, sim::kHour, "AAA111");
  ASSERT_TRUE(detector.per_booking_trip_time(gateway_).has_value());
  // Different PNRs never aggregate.
  sms::SmsGateway fresh(network_, sms::GatewayConfig{});
  for (int i = 0; i < 20; ++i) {
    fresh.send(i, sms::PhoneNumber{net::CountryCode{'U', 'Z'}, "1"}, sms::SmsType::BoardingPass,
               web::ActorId{1}, "PNR" + std::to_string(i));
  }
  EXPECT_FALSE(detector.per_booking_trip_time(fresh).has_value());
}

TEST_F(SmsAnomalyTest, AnalyzeEmitsSurgeAndRateAlerts) {
  SmsAnomalyConfig config;
  config.path_daily_limit = 200;
  config.per_booking_limit = 10;
  SmsAnomalyDetector detector(config);
  send_daily(net::CountryCode{'G', 'B'}, 10, 7, 0);
  send_daily(net::CountryCode{'U', 'Z'}, 300, 2, sim::kWeek, "AAA111");

  AlertSink sink;
  const SmsAnomalyDetector::Window window{0, sim::kWeek, sim::kWeek, sim::kWeek + 2 * sim::kDay};
  detector.analyze_windows(gateway_, {&window, 1}, sink);
  EXPECT_FALSE(sink.by_detector("sms.country-surge").empty());
  EXPECT_FALSE(sink.by_detector("sms.path-rate").empty());
  EXPECT_FALSE(sink.by_detector("sms.per-booking-rate").empty());
}

// --- Labels / scoring ----------------------------------------------------------------------

TEST(Labels, ScoreActorsComputesConfusion) {
  app::ActorRegistry registry;
  const auto human1 = registry.register_actor(app::ActorKind::Human);
  const auto human2 = registry.register_actor(app::ActorKind::Human);
  const auto bot = registry.register_actor(app::ActorKind::SeatSpinBot);
  const auto manual = registry.register_actor(app::ActorKind::ManualSpinner);

  std::unordered_set<web::ActorId> flagged = {bot, human1};
  const auto score = score_actors(flagged, {human1, human2, bot, manual}, registry,
                                  TruthCriterion::Abuser);
  EXPECT_EQ(score.confusion.tp, 1u);   // bot
  EXPECT_EQ(score.confusion.fp, 1u);   // human1
  EXPECT_EQ(score.confusion.fn, 1u);   // manual missed
  EXPECT_EQ(score.confusion.tn, 1u);   // human2
  ASSERT_EQ(score.missed.size(), 1u);
  EXPECT_EQ(score.missed.front(), manual);

  // Under the Automated criterion the manual spinner is a true negative.
  const auto auto_score = score_actors(flagged, {human1, human2, bot, manual}, registry,
                                       TruthCriterion::Automated);
  EXPECT_EQ(auto_score.confusion.fn, 0u);
}

}  // namespace
}  // namespace fraudsim::detect
