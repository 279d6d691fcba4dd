#include "core/fault/fault.hpp"

#include <cassert>
#include <cstdio>

#include "util/format.hpp"

namespace fraudsim::fault {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kError:
      return "error";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kLatency:
      return "latency";
  }
  return "?";
}

const char* to_string(ScenarioKind k) {
  switch (k) {
    case ScenarioKind::Never:
      return "never";
    case ScenarioKind::Always:
      return "always";
    case ScenarioKind::Probabilistic:
      return "probabilistic";
    case ScenarioKind::EveryNth:
      return "every-nth";
    case ScenarioKind::OnNth:
      return "on-nth";
    case ScenarioKind::Window:
      return "window";
    case ScenarioKind::Burst:
      return "burst";
  }
  return "?";
}

FaultScenario FaultScenario::always() {
  FaultScenario s;
  s.kind = ScenarioKind::Always;
  return s;
}

FaultScenario FaultScenario::probabilistic(double p, std::uint64_t seed) {
  FaultScenario s;
  s.kind = ScenarioKind::Probabilistic;
  s.probability = p;
  s.seed = seed;
  return s;
}

FaultScenario FaultScenario::every_nth(std::uint64_t n) {
  FaultScenario s;
  s.kind = ScenarioKind::EveryNth;
  s.nth = n;
  return s;
}

FaultScenario FaultScenario::window(sim::SimTime from, sim::SimTime to) {
  FaultScenario s;
  s.kind = ScenarioKind::Window;
  s.from = from;
  s.to = to;
  return s;
}

FaultScenario FaultScenario::crash_at_hit(std::uint64_t n) {
  FaultScenario s;
  s.kind = ScenarioKind::OnNth;
  s.fault = FaultKind::kCrash;
  s.nth = n;
  return s;
}

FaultScenario FaultScenario::burst(sim::SimTime first, sim::SimDuration period,
                                   sim::SimDuration duration) {
  FaultScenario s;
  s.kind = ScenarioKind::Burst;
  s.from = first;
  s.period = period;
  s.duration = duration;
  return s;
}

FaultScenario FaultScenario::with_latency(sim::SimDuration delay) const {
  FaultScenario s = *this;
  s.fault = FaultKind::kLatency;
  s.latency = delay;
  return s;
}

void FaultScenario::checkpoint(util::ByteWriter& out) const {
  out.u8(static_cast<std::uint8_t>(kind));
  out.u8(static_cast<std::uint8_t>(fault));
  out.f64(probability);
  out.u64(seed);
  out.u64(nth);
  out.i64(from);
  out.i64(to);
  out.i64(period);
  out.i64(duration);
  out.i64(latency);
}

void FaultScenario::restore(util::ByteReader& in) {
  if (!in.read_enum(ScenarioKind::Burst, kind) || !in.read_enum(FaultKind::kLatency, fault)) {
    return;
  }
  probability = in.f64();
  seed = in.u64();
  nth = in.u64();
  from = in.i64();
  to = in.i64();
  period = in.i64();
  duration = in.i64();
  latency = in.i64();
}

std::string FaultScenario::describe() const {
  char buf[128];
  // Latency spikes keep the pattern description, prefixed with the charge.
  if (fault == FaultKind::kLatency) {
    FaultScenario pattern = *this;
    pattern.fault = FaultKind::kError;
    return "+" +
           util::format_fixed(static_cast<double>(latency) / static_cast<double>(sim::kSecond),
                              1) +
           "s latency, " + pattern.describe();
  }
  switch (kind) {
    case ScenarioKind::Never:
      return "never";
    case ScenarioKind::Always:
      return "always";
    case ScenarioKind::Probabilistic:
      return "p=" + util::format_fixed(probability, 3) + " seed=" + std::to_string(seed);
    case ScenarioKind::EveryNth:
      std::snprintf(buf, sizeof(buf), "every %llu-th hit", static_cast<unsigned long long>(nth));
      return buf;
    case ScenarioKind::OnNth:
      std::snprintf(buf, sizeof(buf), "%s on hit %llu",
                    fault == FaultKind::kCrash ? "crash" : "fail",
                    static_cast<unsigned long long>(nth));
      return buf;
    case ScenarioKind::Window:
      return "down " + sim::format_time(from) + " .. " + sim::format_time(to);
    case ScenarioKind::Burst:
      return "down " + util::format_fixed(sim::to_hours(duration), 1) + "h every " +
             util::format_fixed(sim::to_hours(period), 1) + "h from " + sim::format_time(from);
  }
  return "?";
}

FaultPoint::FaultPoint(std::string name) : name_(std::move(name)) {}

void FaultPoint::arm(FaultScenario scenario) {
  scenario_ = scenario;
  armed_hits_ = 0;
  if (scenario_.kind == ScenarioKind::Probabilistic) {
    rng_.emplace(scenario_.seed);
  } else {
    rng_.reset();
  }
}

void FaultPoint::reset_counters() {
  hits_ = 0;
  injected_ = 0;
  armed_hits_ = 0;
  if (scenario_.kind == ScenarioKind::Probabilistic) rng_.emplace(scenario_.seed);
}

FaultAction FaultPoint::consult(sim::SimTime now) {
  ++hits_;
  FaultAction action;
  if (scenario_.kind == ScenarioKind::Never) return action;
  ++armed_hits_;
  bool fire = false;
  switch (scenario_.kind) {
    case ScenarioKind::Never:
      break;
    case ScenarioKind::Always:
      fire = true;
      break;
    case ScenarioKind::Probabilistic:
      fire = rng_->bernoulli(scenario_.probability);
      break;
    case ScenarioKind::EveryNth:
      fire = scenario_.nth != 0 && armed_hits_ % scenario_.nth == 0;
      break;
    case ScenarioKind::OnNth:
      fire = scenario_.nth != 0 && armed_hits_ == scenario_.nth;
      break;
    case ScenarioKind::Window:
      fire = now >= scenario_.from && now < scenario_.to;
      break;
    case ScenarioKind::Burst: {
      if (scenario_.period <= 0 || now < scenario_.from) break;
      const sim::SimDuration phase = (now - scenario_.from) % scenario_.period;
      fire = phase < scenario_.duration;
      break;
    }
  }
  if (!fire) return action;
  ++injected_;
  action.fired = true;
  switch (scenario_.fault) {
    case FaultKind::kError:
      action.error = true;
      break;
    case FaultKind::kLatency:
      action.latency = scenario_.latency;
      break;
    case FaultKind::kCrash:
      // crash_due() owns the unwind; error-path callers see a no-op so the
      // two fault families stay disjoint on shared consult logic.
      break;
  }
  return action;
}

void FaultPoint::checkpoint(util::ByteWriter& out) const {
  scenario_.checkpoint(out);
  out.u64(hits_);
  out.u64(armed_hits_);
  out.u64(injected_);
  out.boolean(rng_.has_value());
  if (rng_.has_value()) rng_->checkpoint(out);
}

void FaultPoint::restore(util::ByteReader& in) {
  scenario_.restore(in);
  hits_ = in.u64();
  armed_hits_ = in.u64();
  injected_ = in.u64();
  if (in.boolean()) {
    rng_.emplace(scenario_.seed);
    rng_->restore(in);
  } else {
    rng_.reset();
  }
}

FaultPoint& FaultRegistry::point(const std::string& name) {
  auto it = points_.find(name);
  if (it == points_.end()) {
    it = points_.emplace(name, std::make_unique<FaultPoint>(name)).first;
  }
  return *it->second;
}

const FaultPoint* FaultRegistry::find(const std::string& name) const {
  const auto it = points_.find(name);
  return it == points_.end() ? nullptr : it->second.get();
}

bool FaultRegistry::arm(const std::string& name, FaultScenario scenario) {
  point(name).arm(scenario);
  return true;
}

void FaultRegistry::disarm_all() {
  for (auto& [name, p] : points_) p->disarm();
}

void FaultRegistry::reset() {
  for (auto& [name, p] : points_) {
    p->disarm();
    p->reset_counters();
  }
}

std::size_t FaultRegistry::armed_count() const {
  std::size_t n = 0;
  for (const auto& [name, p] : points_) {
    if (p->armed()) ++n;
  }
  return n;
}

std::uint64_t FaultRegistry::total_injected() const {
  std::uint64_t total = 0;
  for (const auto& [name, p] : points_) total += p->injected();
  return total;
}

void FaultRegistry::checkpoint(util::ByteWriter& out) const {
  // Only armed, non-crash points are captured. Pristine or merely-hit points
  // are omitted (their lifetime counters never influence future firing — the
  // cursor that does, armed_hits_, is zeroed by arm()), so the blob and every
  // journal checkpoint embedding it stay independent of which guarded code
  // paths merely exist. Crash-kind scenarios are excluded on purpose: they
  // model the external process killer, which a restarted process does not
  // re-inherit — and a recovery re-record whose blob had to byte-match the
  // crashed run's could otherwise never get past the kill point.
  const auto captured = [](const FaultPoint& p) {
    return p.armed() && p.scenario().fault != FaultKind::kCrash;
  };
  std::uint64_t live = 0;
  for (const auto& [name, p] : points_) {
    if (captured(*p)) ++live;
  }
  out.u64(live);
  for (const auto& [name, p] : points_) {
    if (!captured(*p)) continue;
    out.str(name);
    p->checkpoint(out);
  }
}

void FaultRegistry::restore(util::ByteReader& in) {
  reset();
  const std::uint64_t live = in.u64();
  for (std::uint64_t i = 0; i < live && in.ok(); ++i) {
    const std::string name = in.str();
    point(name).restore(in);
  }
}

FaultRegistry& FaultRegistry::global() {
  thread_local FaultRegistry registry;
  return registry;
}

ScopedFaultReset::ScopedFaultReset() {
  auto& registry = FaultRegistry::global();
  registry.for_each([this](const FaultPoint& p) {
    if (p.armed() || p.hits() != 0) leaked_on_entry_ = true;
  });
  assert(!leaked_on_entry_ && "fault scenario leaked into this job from a previous one");
  registry.reset();
}

ScopedFaultReset::~ScopedFaultReset() { FaultRegistry::global().reset(); }

}  // namespace fraudsim::fault
