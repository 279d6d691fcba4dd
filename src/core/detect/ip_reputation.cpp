#include "core/detect/ip_reputation.hpp"

namespace fraudsim::detect {

IpReputationDetector::IpReputationDetector(const net::GeoDb& geo, IpReputationConfig config)
    : geo_(geo), config_(config) {}

bool IpReputationDetector::is_datacenter(net::IpV4 ip) const { return geo_.is_datacenter(ip); }

void IpReputationDetector::analyze_many(
    std::span<const std::vector<web::Session>* const> session_sets, AlertSink& sink,
    std::vector<std::size_t>* alerts_per_set) const {
  if (alerts_per_set != nullptr) alerts_per_set->assign(session_sets.size(), 0);
  // Memoized geo verdicts: one is_datacenter lookup per distinct address
  // across the whole batch.
  std::unordered_map<std::uint32_t, bool> datacenter;
  auto is_dc = [&](net::IpV4 ip) {
    const auto it = datacenter.find(ip.value());
    if (it != datacenter.end()) return it->second;
    const bool dc = geo_.is_datacenter(ip);
    datacenter.emplace(ip.value(), dc);
    return dc;
  };
  for (std::size_t set = 0; set < session_sets.size(); ++set) {
    const auto& sessions = *session_sets[set];
    const std::size_t before = sink.alerts().size();
    std::unordered_map<std::uint32_t, std::uint64_t> sessions_per_ip;
    for (const auto& session : sessions) {
      if (session.requests.empty()) continue;
      ++sessions_per_ip[session.requests.front().ip.value()];
    }
    for (const auto& session : sessions) {
      if (session.requests.empty()) continue;
      const auto ip = session.requests.front().ip;
      const char* reason = nullptr;
      if (config_.flag_datacenter && is_dc(ip)) {
        reason = "datacenter exit address";
      } else if (sessions_per_ip[ip.value()] > config_.max_sessions_per_ip) {
        reason = "address shared across many sessions";
      }
      if (reason == nullptr) continue;
      Alert alert;
      alert.time = session.end();
      alert.detector = "ip.reputation";
      alert.severity = Severity::Warning;
      alert.explanation = reason;
      alert.ip = ip;
      alert.session = session.id;
      alert.actor = session.actor;
      alert.fingerprint = session.requests.front().fp_hash;
      sink.emit(std::move(alert));
    }
    if (alerts_per_set != nullptr) (*alerts_per_set)[set] = sink.alerts().size() - before;
  }
}

}  // namespace fraudsim::detect
