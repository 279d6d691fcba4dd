#include "core/detect/graph/graph_detector.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/format.hpp"

namespace fraudsim::detect::graph {

namespace {

// Locale-independent fixed formatting for alert explanations (determinism).
std::string fixed2(double v) { return util::format_fixed(v, 2); }

}  // namespace

std::vector<GraphDetector::ComponentVerdict> GraphDetector::scored_components(
    sim::SimTime at) const {
  std::vector<ComponentVerdict> out;
  for (const ComponentSummary& c : graph_.components(at)) {
    ComponentVerdict v;
    v.summary = c;
    const double sessions = static_cast<double>(c.sessions);
    const double fp_share =
        sessions / static_cast<double>(std::max<std::size_t>(1, c.fingerprints));
    const double ip_share = sessions / static_cast<double>(std::max<std::size_t>(1, c.ips));
    const double token_share =
        c.tokens > 0 ? sessions / static_cast<double>(c.tokens) : 0.0;
    v.sharing = std::max(fp_share, std::max(ip_share, token_share));
    v.signal_mass =
        config_.weight_requests * c.signals[static_cast<std::size_t>(Signal::Requests)] +
        config_.weight_holds * c.signals[static_cast<std::size_t>(Signal::Holds)] +
        config_.weight_sms * c.signals[static_cast<std::size_t>(Signal::Sms)] +
        config_.weight_pays * c.signals[static_cast<std::size_t>(Signal::Pays)];
    v.flagged = c.sessions >= config_.min_sessions && v.sharing >= config_.min_sharing &&
                v.signal_mass >= config_.signal_threshold;
    v.score = std::log2(1.0 + sessions) * v.sharing * v.signal_mass;
    out.push_back(v);
  }
  return out;
}

void GraphDetector::score_batch(std::span<const RequestView> views, std::span<BatchScore> scores,
                                AlertSink& alerts) {
  score_each_view(cost(), views, scores, alerts, [this](const RequestView& view, AlertSink& sink) {
    // Verdicts once per view; membership lookups are then O(1) per session.
    std::unordered_map<std::uint32_t, const ComponentVerdict*> flagged;
    const auto verdicts = scored_components(view.to);
    for (const auto& v : verdicts) {
      if (v.flagged) flagged.emplace(v.summary.id, &v);
    }
    if (flagged.empty()) return;
    for (const web::Session& s : view.sessions_for(cost())) {
      const auto node = graph_.find(NodeType::Session, s.id.str());
      if (node == 0) continue;
      const std::uint32_t cid = graph_.component_of(node);
      const auto it = flagged.find(cid);
      if (it == flagged.end()) continue;
      const ComponentVerdict& v = *it->second;
      Alert alert;
      alert.time = view.to;
      alert.detector = name();
      alert.severity = Severity::Critical;
      alert.explanation = "abuse-ring component " + std::to_string(cid) + ": " +
                          std::to_string(v.summary.sessions) + " sessions share " +
                          std::to_string(v.summary.fingerprints) + " fingerprints/" +
                          std::to_string(v.summary.ips) + " ips/" +
                          std::to_string(v.summary.tokens) + " payment tokens (sharing " +
                          fixed2(v.sharing) + ", signal mass " + fixed2(v.signal_mass) + ")";
      alert.session = s.id;
      alert.actor = s.actor;
      sink.emit(std::move(alert));
    }
  });
}

}  // namespace fraudsim::detect::graph
