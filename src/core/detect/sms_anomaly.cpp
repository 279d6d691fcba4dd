#include "core/detect/sms_anomaly.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "util/table.hpp"

namespace fraudsim::detect {

SmsAnomalyDetector::SmsAnomalyDetector(SmsAnomalyConfig config) : config_(config) {}

std::vector<CountrySurge> SmsAnomalyDetector::country_surges(
    const sms::SmsGateway& gateway, sim::SimTime baseline_from, sim::SimTime baseline_to,
    sim::SimTime during_from, sim::SimTime during_to, std::optional<sms::SmsType> type) const {
  const auto baseline = gateway.volume_by_country(baseline_from, baseline_to, type);
  const auto during = gateway.volume_by_country(during_from, during_to, type);

  // Normalise to per-day rates so unequal window lengths compare fairly.
  const double baseline_days =
      std::max(1.0, sim::to_days(baseline_to - baseline_from));
  const double during_days = std::max(1.0, sim::to_days(during_to - during_from));

  std::vector<CountrySurge> out;
  std::map<net::CountryCode, bool> seen;
  for (const auto& [country, count] : during.entries()) {
    (void)count;
    seen[country] = true;
  }
  for (const auto& [country, count] : baseline.entries()) {
    (void)count;
    seen[country] = true;
  }
  for (const auto& [country, _] : seen) {
    (void)_;
    CountrySurge s;
    s.country = country;
    s.baseline = static_cast<double>(baseline.count(country)) / baseline_days;
    s.during = static_cast<double>(during.count(country)) / during_days;
    s.surge_fraction = analytics::surge_fraction(
        std::max(s.baseline, config_.min_baseline_per_day), s.during);
    out.push_back(s);
  }
  // Rank by surge, then by absolute attack volume (ties among never-seen
  // destinations resolve toward the heavily-targeted ones).
  std::stable_sort(out.begin(), out.end(), [](const CountrySurge& a, const CountrySurge& b) {
    if (a.surge_fraction != b.surge_fraction) return a.surge_fraction > b.surge_fraction;
    return a.during > b.during;
  });
  return out;
}

std::optional<sim::SimTime> SmsAnomalyDetector::path_limit_trip_time(
    const sms::SmsGateway& gateway) const {
  // Rolling-day counting over boarding-pass sends in log order.
  std::vector<sim::SimTime> window;
  std::size_t head = 0;
  for (const auto& r : gateway.log()) {
    if (!r.delivered || r.type != sms::SmsType::BoardingPass) continue;
    window.push_back(r.time);
    while (head < window.size() && window[head] <= r.time - sim::kDay) ++head;
    if (static_cast<double>(window.size() - head) >= config_.path_daily_limit) {
      return r.time;
    }
  }
  return std::nullopt;
}

std::optional<sim::SimTime> SmsAnomalyDetector::per_booking_trip_time(
    const sms::SmsGateway& gateway) const {
  std::unordered_map<std::string, std::uint64_t> counts;
  for (const auto& r : gateway.log()) {
    if (!r.delivered || !r.booking_ref) continue;
    if (++counts[*r.booking_ref] > config_.per_booking_limit) return r.time;
  }
  return std::nullopt;
}

void SmsAnomalyDetector::analyze_windows(const sms::SmsGateway& gateway,
                                         std::span<const Window> windows, AlertSink& sink,
                                         std::vector<std::size_t>* alerts_per_window) const {
  if (alerts_per_window != nullptr) alerts_per_window->assign(windows.size(), 0);
  if (windows.empty()) return;
  // The rate monitors are window-independent full-log scans: one scan serves
  // every window in the batch.
  const auto path_trip = path_limit_trip_time(gateway);
  const auto booking_trip = per_booking_trip_time(gateway);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const Window& w = windows[i];
    const std::size_t before = sink.alerts().size();
    for (const auto& surge :
         country_surges(gateway, w.baseline_from, w.baseline_to, w.during_from, w.during_to)) {
      if (surge.surge_fraction < config_.surge_threshold) continue;
      if (surge.during * sim::to_days(w.during_to - w.during_from) < config_.min_volume) continue;
      Alert alert;
      alert.time = w.during_to;
      alert.detector = "sms.country-surge";
      alert.severity = Severity::Critical;
      alert.explanation = "SMS volume to " + surge.country.str() + " surged " +
                          util::format_surge_percent(surge.surge_fraction);
      sink.emit(std::move(alert));
    }
    if (path_trip) {
      Alert alert;
      alert.time = *path_trip;
      alert.detector = "sms.path-rate";
      alert.severity = Severity::Critical;
      alert.explanation = "boarding-pass SMS path exceeded daily volume limit";
      sink.emit(std::move(alert));
    }
    if (booking_trip) {
      Alert alert;
      alert.time = *booking_trip;
      alert.detector = "sms.per-booking-rate";
      alert.severity = Severity::Critical;
      alert.explanation = "single booking reference exceeded SMS send limit";
      sink.emit(std::move(alert));
    }
    if (alerts_per_window != nullptr) {
      (*alerts_per_window)[i] = sink.alerts().size() - before;
    }
  }
}

}  // namespace fraudsim::detect
