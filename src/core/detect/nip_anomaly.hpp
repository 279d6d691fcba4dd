// NiP-distribution anomaly detection (the Fig. 1 analysis as a detector).
//
// Maintains a baseline Number-in-Party histogram from a reference period and
// compares observation windows against it (chi-square + per-NiP z-scores).
// Flags the NiP values driving the deviation and the reservations/flights
// carrying them — how the Airline A wave at NiP=6 stands out against an
// average week.
#pragma once

#include <span>
#include <vector>

#include "airline/inventory.hpp"
#include "analytics/compare.hpp"
#include "analytics/histogram.hpp"
#include "core/detect/alert.hpp"

namespace fraudsim::detect {

struct NipAnomalyConfig {
  int max_nip = 9;
  double alpha = 1e-4;        // chi-square significance for "distribution shifted"
  double z_threshold = 6.0;   // per-NiP z-score to name a culprit value
  // Minimum observed reservations in a window before judging it.
  std::uint64_t min_window_count = 50;
};

struct NipWindowVerdict {
  analytics::DistributionTestResult test;
  std::vector<std::pair<int, double>> z_scores;  // (nip, z)
  std::vector<int> anomalous_nips;               // z above threshold
  bool anomalous = false;
};

class NipAnomalyDetector {
 public:
  explicit NipAnomalyDetector(NipAnomalyConfig config = {});

  // Baseline from reservations created in [from, to).
  void fit_baseline(const std::vector<airline::Reservation>& reservations, sim::SimTime from,
                    sim::SimTime to);
  void fit_baseline(const analytics::CategoricalHistogram<int>& histogram);

  [[nodiscard]] NipWindowVerdict evaluate_window(
      const std::vector<airline::Reservation>& reservations, sim::SimTime from,
      sim::SimTime to) const;

  // Verdict from an already-binned window histogram (analyze_windows bins
  // every window in one pass and judges each from its histogram).
  [[nodiscard]] NipWindowVerdict evaluate_window(
      const analytics::CategoricalHistogram<int>& observed) const;

  // Judges each window in order: an anomalous window emits one alert per
  // anomalous NiP value, each followed by one per window reservation at that
  // value. One pass over the reservation log bins every window's histogram
  // and reservation index list. When `alerts_per_window` is non-null it
  // receives one emitted-alert count per window.
  struct Window {
    sim::SimTime from = 0;
    sim::SimTime to = 0;
  };
  void analyze_windows(const std::vector<airline::Reservation>& reservations,
                       std::span<const Window> windows, AlertSink& sink,
                       std::vector<std::size_t>* alerts_per_window = nullptr) const;

  [[nodiscard]] const analytics::CategoricalHistogram<int>& baseline() const { return baseline_; }

  // Histogram of NiP for reservations created inside a window.
  [[nodiscard]] static analytics::CategoricalHistogram<int> window_histogram(
      const std::vector<airline::Reservation>& reservations, sim::SimTime from, sim::SimTime to);

 private:
  NipAnomalyConfig config_;
  analytics::CategoricalHistogram<int> baseline_;
};

}  // namespace fraudsim::detect
