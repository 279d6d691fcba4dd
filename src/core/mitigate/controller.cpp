#include "core/mitigate/controller.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "core/detect/alert.hpp"

namespace fraudsim::mitigate {

MitigationController::MitigationController(app::Application& application, RuleEngine& engine,
                                           ControllerConfig config)
    : app_(application),
      engine_(engine),
      config_(config),
      nip_detector_(config.nip),
      name_analyzer_(config.names),
      sms_detector_(config.sms),
      biometric_detector_(config.biometric_thresholds),
      sweep_fault_(fault::FaultRegistry::global().point("detect.sweep.run")),
      sweeps_(application.metrics().counter("mitigate.sweeps")),
      sweeps_skipped_(application.metrics().counter("mitigate.sweeps_skipped")),
      actions_counter_(application.metrics().counter("mitigate.actions")) {}

void MitigationController::record_action(EnforcementAction action) {
  actions_counter_.inc();
  actions_.push_back(std::move(action));
}

void MitigationController::fit_nip_baseline(sim::SimTime from, sim::SimTime to) {
  nip_detector_.fit_baseline(app_.inventory().reservations(), from, to);
}

void MitigationController::start(sim::SimTime until) {
  until_ = until;
  schedule_next();
}

void MitigationController::schedule_next() {
  if (app_.simulation().now() + config_.sweep_interval > until_) return;
  app_.simulation().schedule_in(config_.sweep_interval, [this] {
    sweep();
    schedule_next();
  });
}

void MitigationController::sweep() {
  const sim::SimTime now = app_.simulation().now();
  if (sweep_fault_.should_fail(now)) {
    // Detection backend down: skip this sweep entirely. Enforcement resumes
    // at the next scheduled sweep after the outage.
    sweeps_skipped_.inc();
    record_action(EnforcementAction{now, "sweep-skipped", "detection outage"});
    return;
  }
  sweeps_.inc();
  const sim::SimTime from = std::max<sim::SimTime>(0, now - config_.analysis_window);

  std::unordered_set<fp::FpHash> to_block;

  // 1. Advanced feature-level detectors over the window's reservations. A
  // fingerprint is only enforceable once enough DISTINCT reservations
  // carrying it have been flagged (popular configurations are shared with
  // legitimate users).
  detect::AlertSink sink;
  nip_detector_.analyze(app_.inventory().reservations(), from, now, sink);
  std::vector<const airline::Reservation*> window;
  for (const auto& r : app_.inventory().reservations()) {
    if (r.created >= from && r.created < now) window.push_back(&r);
  }
  name_analyzer_.analyze(window, sink);
  if (config_.block_flagged_fingerprints) {
    for (const auto& alert : sink.alerts()) {
      if (!alert.fingerprint || !alert.fingerprint->valid() || !alert.pnr) continue;
      auto& pnrs = flagged_pnrs_[*alert.fingerprint];
      pnrs.insert(*alert.pnr);
      if (pnrs.size() >= config_.min_flagged_pnrs) to_block.insert(*alert.fingerprint);
    }
  }

  // 2. Biometric enforcement (§V): fingerprints whose pointer telemetry keeps
  // failing the kinematic/replay checks. The detector and per-fp tallies are
  // persistent members so replayed geometries accumulate across sweeps.
  // Under brownout only every stride-th sample is scanned — the expensive
  // detector thins out while the platform is hot.
  if (config_.block_biometric_flagged) {
    const int stride =
        app_.overload().enabled() ? app_.overload().brownout().detector_stride() : 1;
    const auto& log = app_.biometric_log();
    for (; biometric_cursor_ < log.size(); ++biometric_cursor_) {
      if (stride > 1 && (biometric_cursor_ % static_cast<std::size_t>(stride)) != 0) continue;
      const auto& record = log[biometric_cursor_];
      std::string reason;
      if (!biometric_detector_.observe(record.features, &reason)) continue;
      if (++biometric_hits_[record.fingerprint] >= config_.min_biometric_hits) {
        to_block.insert(record.fingerprint);
      }
    }
  }

  // 3. Automation artifacts observed at ingress.
  if (config_.block_artifact_fingerprints) {
    app_.fingerprints().for_each(
        [&](fp::FpHash hash, const fp::Fingerprint& fingerprint, std::uint64_t) {
          if (fingerprint.webdriver_flag || fingerprint.headless_hint) to_block.insert(hash);
        });
  }

  // Enforce in hash order: to_block's unordered iteration order depends on
  // container history, which a checkpoint restore does not reproduce — the
  // action ledger (and the SOC report rendering it) must not depend on it.
  std::vector<fp::FpHash> ordered(to_block.begin(), to_block.end());
  std::sort(ordered.begin(), ordered.end(),
            [](fp::FpHash a, fp::FpHash b) { return a.value() < b.value(); });
  for (const auto hash : ordered) {
    if (engine_.blocklist().contains(hash)) continue;
    engine_.blocklist().block(hash, now, "controller-sweep");
    record_action(EnforcementAction{now, "fp-block", hash.str()});
  }

  // 4. NiP cap (once).
  if (config_.impose_nip_cap && !nip_cap_time_) {
    const auto verdict = nip_detector_.evaluate_window(app_.inventory().reservations(), from, now);
    if (verdict.anomalous) {
      app_.inventory().set_max_nip(config_.nip_cap_value);
      nip_cap_time_ = now;
      record_action(EnforcementAction{
          now, "nip-cap", "cap=" + std::to_string(config_.nip_cap_value)});
    }
  }

  // 5. SMS feature removal on path-volume trip (once).
  if (config_.disable_sms_on_path_trip && !sms_disable_time_) {
    if (const auto trip = sms_detector_.path_limit_trip_time(app_.sms_gateway());
        trip && *trip <= now) {
      app_.boarding().set_sms_option_enabled(false);
      sms_disable_time_ = now;
      record_action(EnforcementAction{now, "sms-disable", "boarding-pass SMS removed"});
    }
  }
}

void MitigationController::checkpoint(util::ByteWriter& out) const {
  // NiP baseline (refitting from reservations would scan state that may have
  // been trimmed; the histogram itself is small).
  const auto& baseline = nip_detector_.baseline().entries();
  out.u64(baseline.size());
  for (const auto& [nip, count] : baseline) {
    out.i64(nip);
    out.u64(count);
  }
  out.i64(until_);
  // flagged_pnrs_ / biometric_hits_ are unordered_maps; write hashes sorted
  // so checkpoint frames are byte-stable across standard libraries and
  // restore -> re-checkpoint round trips (the per-hash PNR sets are std::set,
  // already ordered).
  std::vector<fp::FpHash> flagged_order;
  flagged_order.reserve(flagged_pnrs_.size());
  for (const auto& [hash, pnrs] : flagged_pnrs_) flagged_order.push_back(hash);
  std::sort(flagged_order.begin(), flagged_order.end(),
            [](fp::FpHash a, fp::FpHash b) { return a.value() < b.value(); });
  out.u64(flagged_order.size());
  for (const fp::FpHash hash : flagged_order) {
    const auto& pnrs = flagged_pnrs_.at(hash);
    out.u64(hash.value());
    out.u64(pnrs.size());
    for (const auto& pnr : pnrs) out.str(pnr);
  }
  biometric_detector_.checkpoint(out);
  out.u64(biometric_cursor_);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hits_order;
  hits_order.reserve(biometric_hits_.size());
  for (const auto& [hash, hits] : biometric_hits_) hits_order.emplace_back(hash.value(), hits);
  std::sort(hits_order.begin(), hits_order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.u64(hits_order.size());
  for (const auto& [hash, hits] : hits_order) {
    out.u64(hash);
    out.u64(hits);
  }
  out.u64(actions_.size());
  for (const auto& a : actions_) {
    out.i64(a.time);
    out.str(a.kind);
    out.str(a.detail);
  }
  out.boolean(nip_cap_time_.has_value());
  if (nip_cap_time_) out.i64(*nip_cap_time_);
  out.boolean(sms_disable_time_.has_value());
  if (sms_disable_time_) out.i64(*sms_disable_time_);
}

void MitigationController::restore(util::ByteReader& in) {
  // Counts are bounded by the bytes left (a NiP entry, a hash entry and a
  // biometric tally are 16 bytes, a PNR at least 4, an action at least 16).
  // checkpoint() writes every keyed list in strictly ascending key order, so
  // a repeated or out-of-order key is corrupt, not two tallies to merge.
  analytics::CategoricalHistogram<int> baseline;
  const auto baseline_entries = in.count(16);
  for (std::uint64_t i = 0; i < baseline_entries && in.ok(); ++i) {
    const int nip = static_cast<int>(in.i64());
    if (baseline.entries().contains(nip)) in.fail();
    baseline.add(nip, in.u64());
  }
  nip_detector_.fit_baseline(baseline);
  until_ = in.i64();
  flagged_pnrs_.clear();
  const auto flagged = in.count(16);
  std::uint64_t previous = 0;
  for (std::uint64_t i = 0; i < flagged && in.ok(); ++i) {
    const std::uint64_t hash = in.u64();
    if (i > 0 && hash <= previous) in.fail();
    previous = hash;
    auto& pnrs = flagged_pnrs_[fp::FpHash{hash}];
    const auto count = in.count(4);
    for (std::uint64_t p = 0; p < count && in.ok(); ++p) pnrs.insert(in.str());
  }
  biometric_detector_.restore(in);
  biometric_cursor_ = in.u64();
  biometric_hits_.clear();
  const auto hits = in.count(16);
  for (std::uint64_t i = 0; i < hits && in.ok(); ++i) {
    const std::uint64_t hash = in.u64();
    if (i > 0 && hash <= previous) in.fail();
    previous = hash;
    biometric_hits_[fp::FpHash{hash}] = in.u64();
  }
  actions_.clear();
  const auto action_count = in.count(16);
  for (std::uint64_t i = 0; i < action_count && in.ok(); ++i) {
    EnforcementAction a;
    a.time = in.i64();
    a.kind = in.str();
    a.detail = in.str();
    actions_.push_back(std::move(a));
  }
  nip_cap_time_.reset();
  if (in.boolean()) nip_cap_time_ = in.i64();
  sms_disable_time_.reset();
  if (in.boolean()) sms_disable_time_ = in.i64();
}

}  // namespace fraudsim::mitigate
