// The uniform detector-family interface.
//
// Every detection family the pipeline runs — behaviour, network reputation,
// fingerprint knowledge, feature-level anomaly — implements this interface,
// so the pipeline iterates one vector instead of hand-written per-family
// branches. The interface layer (DetectionPipeline::run) owns everything a
// family used to hand-roll: fault-point guarding, analysis-budget accounting,
// skip-reason bookkeeping, brownout stride-sampling, per-family metrics and
// trace spans.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "core/detect/alert.hpp"
#include "sim/time.hpp"
#include "web/session.hpp"

namespace fraudsim::app {
class Application;
}

namespace fraudsim::detect {

// Modeled batch-analysis cost class. Cheap families advance the analysis
// clock by analysis_cost_cheap per session, expensive ones (classifier,
// navigation, biometrics) by analysis_cost_expensive — and only expensive
// families are stride-sampled under brownout.
enum class DetectorCost : std::uint8_t { Cheap, Expensive };

[[nodiscard]] constexpr const char* to_string(DetectorCost c) {
  return c == DetectorCost::Expensive ? "expensive" : "cheap";
}

// Read-only view of one analysis window, shared by every family in a run.
// `sessions` is the full sessionized window; `sampled_sessions` is the
// brownout-degraded view (every stride-th session) that expensive families
// analyse — identical to `sessions` when stride == 1.
struct RequestView {
  const app::Application& application;
  sim::SimTime from = 0;
  sim::SimTime to = 0;
  const std::vector<web::Session>& sessions;
  const std::vector<web::Session>& sampled_sessions;
  int stride = 1;

  // The view an implementation of `cost` should analyse.
  [[nodiscard]] const std::vector<web::Session>& sessions_for(DetectorCost cost) const {
    return cost == DetectorCost::Expensive ? sampled_sessions : sessions;
  }
};

// Per-epoch outcome of a batched evaluation: how many sessions the family
// actually analysed in that epoch's view and how many alerts it emitted for
// it.
struct BatchScore {
  std::uint64_t sessions_scored = 0;
  std::uint64_t alerts = 0;
};

class Detector {
 public:
  virtual ~Detector() = default;

  // Family label, e.g. "behavior.volume" (alert attribution + reports).
  [[nodiscard]] virtual const char* name() const = 0;
  // Fault point guarding this family, e.g. "detect.volume.run".
  [[nodiscard]] virtual const char* fault_point() const = 0;
  [[nodiscard]] virtual DetectorCost cost() const = 0;

  // The family's one entry point: scores every epoch view in one call,
  // emitting alerts for views[0], then views[1], ... and filling one
  // BatchScore per view. Scoring N views at once must emit exactly what N
  // one-view calls would, concatenated — a family may share work across
  // views, never change verdicts. `scores.size()` must equal `views.size()`.
  // May throw: the pipeline catches and records the family as skipped — one
  // faulting family never takes the run down.
  virtual void score_batch(std::span<const RequestView> views, std::span<BatchScore> scores,
                           AlertSink& alerts) = 0;
};

// The per-view loop for families with no multi-view kernel: runs
// `score_view(view, alerts)` on each view in order and fills its BatchScore
// from the sessions the family's cost class analyses and the alerts that
// view emitted.
template <typename ScoreView>
void score_each_view(DetectorCost cost, std::span<const RequestView> views,
                     std::span<BatchScore> scores, AlertSink& alerts,
                     const ScoreView& score_view) {
  assert(views.size() == scores.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    const std::size_t before = alerts.alerts().size();
    score_view(views[i], alerts);
    scores[i].sessions_scored = static_cast<std::uint64_t>(views[i].sessions_for(cost).size());
    scores[i].alerts = static_cast<std::uint64_t>(alerts.alerts().size() - before);
  }
}

}  // namespace fraudsim::detect
