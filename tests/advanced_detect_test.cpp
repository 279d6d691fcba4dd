// Tests for the §V "future directions" detectors (navigation modelling,
// IP reputation) and the OTP-pumping attack surface they guard.
#include <gtest/gtest.h>

#include "attack/otp_pump.hpp"
#include "core/detect/ip_reputation.hpp"
#include "core/detect/navigation.hpp"
#include "core/scenario/env.hpp"

namespace fraudsim {
namespace {

web::Session session_of(std::uint64_t id, std::uint64_t actor,
                        const std::vector<web::Endpoint>& path, net::IpV4 ip = {},
                        sim::SimDuration gap = sim::seconds(20)) {
  web::Session s;
  s.id = web::SessionId{id};
  s.actor = web::ActorId{actor};
  sim::SimTime t = 0;
  for (const auto endpoint : path) {
    web::HttpRequest r;
    r.time = t += gap;
    r.session = s.id;
    r.actor = s.actor;
    r.endpoint = endpoint;
    r.ip = ip;
    s.requests.push_back(r);
  }
  return s;
}

using E = web::Endpoint;

std::vector<web::Session> clean_sessions(int n) {
  std::vector<web::Session> out;
  sim::Rng rng(11);
  for (int i = 0; i < n; ++i) {
    // Typical legit journeys: browse -> search -> details -> hold -> pay.
    std::vector<E> path = {E::Home, E::SearchFlights};
    if (rng.bernoulli(0.6)) path.push_back(E::SearchFlights);
    path.push_back(E::FlightDetails);
    if (rng.bernoulli(0.7)) {
      path.push_back(E::SeatMap);
      path.push_back(E::HoldReservation);
      if (rng.bernoulli(0.7)) path.push_back(E::Payment);
    }
    out.push_back(session_of(static_cast<std::uint64_t>(i + 1), 1, path));
  }
  return out;
}

// --- Navigation model ---------------------------------------------------------

TEST(NavigationModel, CleanSessionsMostlyPass) {
  detect::NavigationModel model;
  const auto clean = clean_sessions(400);
  model.fit(clean);
  ASSERT_TRUE(model.fitted());
  int flagged = 0;
  for (const auto& s : clean) {
    if (model.is_anomalous(s)) ++flagged;
  }
  // Threshold calibrated at the 2nd percentile of the clean population.
  EXPECT_LE(flagged, 400 * 5 / 100);
}

TEST(NavigationModel, HoldLoopIsAnomalous) {
  detect::NavigationModel model;
  model.fit(clean_sessions(400));
  // The DoI navigation signature: SeatMap then Hold after Hold after Hold.
  const auto loop = session_of(9001, 2, {E::SeatMap, E::HoldReservation, E::HoldReservation,
                                         E::HoldReservation, E::HoldReservation});
  EXPECT_TRUE(model.is_anomalous(loop));
  EXPECT_LT(model.score(loop), model.threshold());
}

TEST(NavigationModel, ShortSessionsAreNotJudged) {
  detect::NavigationModel model;
  model.fit(clean_sessions(200));
  const auto tiny = session_of(9002, 2, {E::HoldReservation, E::HoldReservation});
  EXPECT_FALSE(model.is_anomalous(tiny));
}

TEST(NavigationModel, UnfittedNeverFlags) {
  detect::NavigationModel model;
  const auto loop = session_of(9003, 2, {E::SeatMap, E::HoldReservation, E::HoldReservation,
                                         E::HoldReservation});
  EXPECT_FALSE(model.is_anomalous(loop));
  EXPECT_DOUBLE_EQ(model.score(loop), 0.0);
}

TEST(NavigationModel, AnalyzeEmitsActorKeyedAlerts) {
  detect::NavigationModel model;
  model.fit(clean_sessions(400));
  detect::AlertSink sink;
  std::vector<web::Session> mixed = clean_sessions(50);
  mixed.push_back(session_of(9004, 77, {E::SeatMap, E::HoldReservation, E::HoldReservation,
                                        E::HoldReservation, E::HoldReservation}));
  model.analyze(mixed, sink);
  bool found = false;
  for (const auto& a : sink.alerts()) {
    if (a.actor == web::ActorId{77}) found = true;
    EXPECT_EQ(a.detector, "behavior.navigation");
  }
  EXPECT_TRUE(found);
}

// --- IP reputation ---------------------------------------------------------------

TEST(IpReputation, FlagsDatacenterAndSharedAddresses) {
  net::GeoDb geo;
  detect::IpReputationDetector detector(geo);
  const auto dc_ip = geo.datacenter_block(net::CountryCode{'U', 'S'})->at(9);
  const auto res_ip = geo.residential_block(net::CountryCode{'F', 'R'})->at(1234);

  std::vector<web::Session> sessions;
  sessions.push_back(session_of(1, 1, {E::Home, E::SearchFlights}, dc_ip));
  sessions.push_back(session_of(2, 2, {E::Home, E::SearchFlights}, res_ip));
  // One residential address re-used by many "different" sessions.
  const auto shared = geo.residential_block(net::CountryCode{'D', 'E'})->at(42);
  for (std::uint64_t i = 0; i < 8; ++i) {
    sessions.push_back(session_of(100 + i, 50 + i, {E::Home, E::SearchFlights}, shared));
  }

  detect::AlertSink sink;
  const std::vector<const std::vector<web::Session>*> sets{&sessions};
  detector.analyze_many(sets, sink);
  bool dc_flagged = false;
  bool res_flagged = false;
  int shared_flags = 0;
  for (const auto& a : sink.alerts()) {
    if (a.ip == dc_ip) dc_flagged = true;
    if (a.ip == res_ip) res_flagged = true;
    if (a.ip == shared) ++shared_flags;
  }
  EXPECT_TRUE(dc_flagged);
  EXPECT_FALSE(res_flagged);  // a single-residential-IP user is normal
  EXPECT_EQ(shared_flags, 8);
  EXPECT_TRUE(detector.is_datacenter(dc_ip));
  EXPECT_FALSE(detector.is_datacenter(res_ip));
}

// --- OTP pumping ------------------------------------------------------------------

TEST(OtpPump, PumpsOtpsWithoutAnyAccountOrPayment) {
  scenario::EnvConfig config;
  config.seed = 91;
  config.legit.booking_sessions_per_hour = 0;
  config.legit.browse_sessions_per_hour = 0;
  config.legit.otp_logins_per_hour = 0;
  scenario::Env env(config);
  env.add_flights("X", 2, 100, sim::days(30));

  attack::OtpPumpConfig pump_config;
  pump_config.mean_request_gap = sim::seconds(15);
  pump_config.stop_at = sim::hours(12);
  attack::OtpPumpBot pump(env.app, env.actors, env.residential, env.population, env.tariffs,
                          pump_config, env.rng.fork("otp-pump"));
  env.start_background(sim::hours(12));
  pump.start();
  env.run_until(sim::hours(12));

  EXPECT_GT(pump.stats().otp_sent, 1000u);
  // No reservations, no payments — pure feature abuse.
  EXPECT_EQ(env.app.inventory().reservations().size(), 0u);
  // None of the OTPs are ever verified.
  EXPECT_EQ(env.app.otp_service().verifications(), 0u);
  EXPECT_EQ(env.app.otp_service().unverified(), pump.stats().otp_sent);
  // Premium destinations dominate the spend.
  const auto hist = env.app.sms_gateway().volume_by_country(0, sim::hours(12), sms::SmsType::Otp);
  const auto top = hist.top(1);
  ASSERT_FALSE(top.empty());
  EXPECT_TRUE(env.tariffs.get(top.front().first).premium_route);
}

TEST(OtpPump, AdHocRateLimitStarvesIt) {
  scenario::EnvConfig config;
  config.seed = 92;
  config.legit.booking_sessions_per_hour = 0;
  config.legit.browse_sessions_per_hour = 0;
  config.legit.otp_logins_per_hour = 12;
  scenario::Env env(config);
  env.add_flights("X", 4, 100, sim::days(30));

  // §V "ad-hoc rate limiting": cap OTP sends per session and globally.
  env.engine.add_rate_limit({"otp-per-session", web::Endpoint::RequestOtp,
                             mitigate::RateKey::BySession, 3, sim::kHour});
  env.engine.add_rate_limit({"otp-path-hourly", web::Endpoint::RequestOtp,
                             mitigate::RateKey::Global, 60, sim::kHour});

  attack::OtpPumpConfig pump_config;
  pump_config.mean_request_gap = sim::seconds(15);
  pump_config.stop_at = sim::hours(12);
  attack::OtpPumpBot pump(env.app, env.actors, env.residential, env.population, env.tariffs,
                          pump_config, env.rng.fork("otp-pump"));
  env.start_background(sim::hours(12));
  pump.start();
  env.run_until(sim::hours(12));

  // The global cap bounds the damage: at most 60/h can be delivered in total.
  EXPECT_LE(pump.stats().otp_sent, 60u * 12u);
  // Either the bot burns against the limit, or the streak of denials makes
  // it give up entirely — both are the mitigation working.
  EXPECT_TRUE(pump.stats().gave_up || pump.stats().counters.rate_limited > 100u);
  EXPECT_GT(pump.stats().counters.rate_limited, 20u);
  // Legitimate logins mostly still work (they are far below per-session caps;
  // the global cap is shared, so some friction is expected under attack).
  const auto& legit = env.legit->stats();
  EXPECT_GT(legit.otp_logins, 0u);
  const double legit_rate_limited = static_cast<double>(legit.rate_limited) /
                                    std::max<std::uint64_t>(1, legit.otp_logins);
  EXPECT_LT(legit_rate_limited, 0.9);
}

}  // namespace
}  // namespace fraudsim
