#include "core/mitigate/rules.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fraudsim::mitigate {

RuleEngine::RuleEngine(const sim::Simulation& sim) : sim_(sim) {}

void RuleEngine::set_blocklist_action(app::PolicyAction action) { blocklist_action_ = action; }

void RuleEngine::block_ip(net::IpV4 ip) { blocked_ips_.insert(ip.value()); }

void RuleEngine::block_cidr(net::Cidr cidr) { blocked_cidrs_.push_back(cidr); }

bool RuleEngine::ip_blocked(net::IpV4 ip) const {
  if (blocked_ips_.contains(ip.value())) return true;
  return std::any_of(blocked_cidrs_.begin(), blocked_cidrs_.end(),
                     [ip](const net::Cidr& c) { return c.contains(ip); });
}

void RuleEngine::gate_to_loyalty(web::Endpoint endpoint) { loyalty_gated_.insert(endpoint); }

void RuleEngine::clear_loyalty_gates() { loyalty_gated_.clear(); }

void RuleEngine::set_challenge_mode(ChallengeMode mode) { challenge_mode_ = mode; }

void RuleEngine::add_rate_limit(RateLimitSpec spec) {
  NamedLimiter named;
  named.limiter = std::make_unique<SlidingWindowRateLimiter>(spec.limit, spec.window);
  named.spec = std::move(spec);
  if (metrics_ != nullptr) {
    named.limiter->bind_denials(
        metrics_->counter("mitigate.rate." + named.spec.name + ".denials"));
  }
  limiters_.push_back(std::move(named));
}

void RuleEngine::bind_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  for (auto& named : limiters_) {
    named.limiter->bind_denials(
        metrics_->counter("mitigate.rate." + named.spec.name + ".denials"));
  }
}

const SlidingWindowRateLimiter* RuleEngine::limiter(const std::string& name) const {
  for (const auto& named : limiters_) {
    if (named.spec.name == name) return named.limiter.get();
  }
  return nullptr;
}

void RuleEngine::remove_rate_limit(const std::string& name) {
  limiters_.erase(std::remove_if(limiters_.begin(), limiters_.end(),
                                 [&](const NamedLimiter& n) { return n.spec.name == name; }),
                  limiters_.end());
}

std::string_view RuleEngine::render_key(const RateLimitSpec& spec,
                                        const web::HttpRequest& request) {
  switch (spec.key) {
    case RateKey::Global:
      return "*";
    case RateKey::ByIp: {
      // Same dotted-quad rendering as net::IpV4::str(), minus the heap.
      char buf[20];
      const std::uint32_t v = request.ip.value();
      const int len = std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (v >> 24) & 0xFF,
                                    (v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF);
      return arena_.copy(std::string_view(buf, static_cast<std::size_t>(len)));
    }
    case RateKey::BySession:
      return arena_.format_u64(request.session.value());
    case RateKey::ByFingerprint:
      return arena_.format_u64(request.fp_hash.value());
    case RateKey::ByBookingRef:
      // Requests without a booking reference fall back to the session key so
      // they cannot dodge the limit by omitting the field. A present ref is
      // request-owned storage — view it directly, no copy at all.
      if (request.booking_ref) return *request.booking_ref;
      return arena_.concat("s:", arena_.format_u64(request.session.value()));
  }
  return "*";
}

bool RuleEngine::looks_suspicious(const app::ClientContext& ctx) const {
  if (ctx.fingerprint.webdriver_flag || ctx.fingerprint.headless_hint) return true;
  return consistency_.inconsistency_score(ctx.fingerprint) >= 0.3;
}

app::PolicyDecision RuleEngine::evaluate(const web::HttpRequest& request,
                                         const app::ClientContext& ctx) {
  // Per-request scope for arena-backed rate keys: every view handed out below
  // dies with this call.
  arena_.reset();

  // 1. IP blocking.
  if (ip_blocked(request.ip)) {
    return app::PolicyDecision{app::PolicyAction::Block, "ip-block", util::ErrorCode::kRejected};
  }

  // 2. Fingerprint blocklist (block or honeypot).
  if (blocklist_.contains(request.fp_hash)) {
    blocklist_.note_hit(request.fp_hash, sim_.now());
    if (blocklist_action_ == app::PolicyAction::Honeypot) {
      return app::PolicyDecision{app::PolicyAction::Honeypot, "fp-honeypot"};
    }
    return app::PolicyDecision{app::PolicyAction::Block, "fp-block", util::ErrorCode::kRejected};
  }

  // 3. Loyalty gating of high-risk features.
  if (loyalty_gated_.contains(request.endpoint) && !ctx.loyalty_member) {
    return app::PolicyDecision{app::PolicyAction::Block, "loyalty-gate",
                               util::ErrorCode::kRejected};
  }

  // 4. Challenge layer.
  if (!ctx.captcha_solved && challenge_mode_ != ChallengeMode::Off &&
      web::is_transactional(request.endpoint)) {
    const bool challenge = challenge_mode_ == ChallengeMode::AllTransactional
                               ? true
                               : looks_suspicious(ctx);
    if (challenge) {
      return app::PolicyDecision{app::PolicyAction::Challenge, "captcha",
                                 util::ErrorCode::kRejected};
    }
  }

  // 5. Rate limits (all matching limits must admit the request; the denial
  // names the first limit that trips). Under brownout every limit is judged
  // against a scaled-down effective limit (never below 1).
  double limit_scale = 1.0;
  if (brownout_ != nullptr && brownout_->enabled()) {
    limit_scale = brownout_->rate_limit_scale();
  }
  for (auto& named : limiters_) {
    if (named.spec.endpoint && *named.spec.endpoint != request.endpoint) continue;
    std::uint64_t effective = named.spec.limit;
    if (limit_scale < 1.0) {
      effective = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 std::ceil(static_cast<double>(named.spec.limit) * limit_scale)));
    }
    if (!named.limiter->allow(sim_.now(), render_key(named.spec, request), effective)) {
      return app::PolicyDecision{app::PolicyAction::RateLimited, named.spec.name,
                                 util::ErrorCode::kRateLimited};
    }
  }

  return app::PolicyDecision{};
}

void RuleEngine::checkpoint(util::ByteWriter& out) const {
  blocklist_.checkpoint(out);
  out.u8(static_cast<std::uint8_t>(blocklist_action_));
  out.u64(blocked_ips_.size());
  for (std::uint32_t ip : blocked_ips_) out.u32(ip);
  out.u64(blocked_cidrs_.size());
  for (const auto& cidr : blocked_cidrs_) {
    out.u32(cidr.base().value());
    out.i64(cidr.prefix_len());
  }
  out.u64(loyalty_gated_.size());
  for (web::Endpoint e : loyalty_gated_) out.u8(static_cast<std::uint8_t>(e));
  out.u8(static_cast<std::uint8_t>(challenge_mode_));
  out.u64(limiters_.size());
  for (const auto& nl : limiters_) {
    out.str(nl.spec.name);
    nl.limiter->checkpoint(out);
  }
}

void RuleEngine::restore(util::ByteReader& in) {
  blocklist_.restore(in);
  in.read_enum(app::PolicyAction::Shed, blocklist_action_);
  blocked_ips_.clear();
  const auto ips = in.u64();
  for (std::uint64_t i = 0; i < ips && in.ok(); ++i) blocked_ips_.insert(in.u32());
  blocked_cidrs_.clear();
  const auto cidrs = in.u64();
  for (std::uint64_t i = 0; i < cidrs && in.ok(); ++i) {
    const net::IpV4 base{in.u32()};
    const int prefix = static_cast<int>(in.i64());
    blocked_cidrs_.emplace_back(base, prefix);
  }
  loyalty_gated_.clear();
  const auto gates = in.u64();
  for (std::uint64_t i = 0; i < gates && in.ok(); ++i) {
    web::Endpoint endpoint{};
    if (in.read_enum(web::Endpoint::TrapFile, endpoint)) loyalty_gated_.insert(endpoint);
  }
  in.read_enum(ChallengeMode::AllTransactional, challenge_mode_);
  // Limiter specs are scenario configuration: the restoring process must have
  // re-added the same rate limits in the same order. Only window state is
  // carried over; a mismatch leaves later limiters at their fresh state.
  const auto limiter_count = in.u64();
  for (std::uint64_t i = 0; i < limiter_count && in.ok(); ++i) {
    const std::string name = in.str();
    SlidingWindowRateLimiter scratch{0, 1};
    bool matched = false;
    for (auto& nl : limiters_) {
      if (nl.spec.name == name) {
        nl.limiter->restore(in);
        matched = true;
        break;
      }
    }
    if (!matched) scratch.restore(in);  // consume the payload to stay aligned
  }
}

}  // namespace fraudsim::mitigate
