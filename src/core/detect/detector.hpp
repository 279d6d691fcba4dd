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
// it. The base-class adapter fills this from the scalar path; a vectorized
// override must report the same numbers.
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

  // Analyses the window and emits alerts. May throw: the pipeline catches
  // and records the family as skipped — one faulting family never takes the
  // run down.
  virtual void evaluate(const RequestView& view, AlertSink& alerts) = 0;

  // Batched entry point: scores every epoch view in one call, filling one
  // BatchScore per view. The base implementation is an adapter that loops
  // `evaluate` over the views, so an existing scalar detector works
  // unmodified; hot families override it with a vectorized pass that shares
  // work across epochs. Contract: alert bytes and order must be identical to
  // the adapter's (evaluate on views[0], then views[1], ...). The adapter is
  // also the pipeline's fallback when the "detect.batch.run" fault point
  // fires, and tests diff an override against it byte-for-byte.
  // `scores.size()` must equal `views.size()`.
  virtual void score_batch(std::span<const RequestView> views, std::span<BatchScore> scores,
                           AlertSink& alerts);
};

}  // namespace fraudsim::detect
