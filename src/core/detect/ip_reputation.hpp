// IP-reputation detection — and why residential proxies defeat it (§III-B,
// the Khan et al. reference).
//
// Two classic signals:
//   * datacenter origin — hosting-range ASes rarely carry real customers
//   * address reuse    — the same IP driving many distinct sessions
//
// Both work on datacenter-proxied scrapers and fail on residential pools:
// every request exits a different household address that geolocates like a
// real customer. bench/exp_detection_comparison shows exactly that split.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/detect/alert.hpp"
#include "net/geo.hpp"
#include "web/session.hpp"

namespace fraudsim::detect {

struct IpReputationConfig {
  // Distinct sessions from one address before it is flagged as shared
  // automation infrastructure.
  std::uint64_t max_sessions_per_ip = 5;
  bool flag_datacenter = true;
};

class IpReputationDetector {
 public:
  IpReputationDetector(const net::GeoDb& geo, IpReputationConfig config = {});

  // Emits one alert per offending session, set by set in order; when
  // `alerts_per_set` is non-null it receives one emitted-alert count per set.
  // The datacenter classification of an address is set-independent, so one
  // geo lookup per distinct address serves the whole batch; the
  // shared-address count stays per set.
  void analyze_many(std::span<const std::vector<web::Session>* const> session_sets,
                    AlertSink& sink, std::vector<std::size_t>* alerts_per_set = nullptr) const;

  [[nodiscard]] bool is_datacenter(net::IpV4 ip) const;

 private:
  const net::GeoDb& geo_;
  IpReputationConfig config_;
};

}  // namespace fraudsim::detect
