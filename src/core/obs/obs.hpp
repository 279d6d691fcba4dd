// Aggregate observability context: one metrics registry plus one trace
// recorder, owned together by the platform instance (Application). Components
// that can also run standalone take an `Observability*` (or a
// `MetricsRegistry*`) and fall back to a private instance when null, so unit
// tests keep isolated counts.
#pragma once

#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"

namespace fraudsim::obs {

struct Observability {
  Observability() = default;
  explicit Observability(TraceConfig trace_config) : traces(trace_config) {}
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  MetricsRegistry metrics;
  TraceRecorder traces;
};

}  // namespace fraudsim::obs
