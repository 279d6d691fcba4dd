// platform_bench — one benchmark for the fraudsim platform.
//
//   platform_bench --workload <doi_live|sms_pump_live|soc_detect|scale_sharded>
//                  --seed N --seconds S --trace 0|1
//                  [--smoke] [--trace-out FILE] [--source ID]
//
// Prints the machine fingerprint, the shape facts and output digests it
// checked, every metric as "metric <name> <value> <unit>", and as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// metrics; a layer a workload does not exercise reports 0.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

void print_digest(const std::string& what, std::uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(digest));
  std::cout << "digest " << what << " " << buf << "\n";
}

namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"requests_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

// Detector families DetectionPipeline::build_detectors() returns with every
// family enabled ('.' in the label becomes '_').
const char* const kFamilies[] = {
    "behavior_volume",      "behavior_classifier",     "behavior_navigation",
    "ip_reputation",        "biometric_pointer",       "fingerprint_artifact",
    "fingerprint_consistency", "fingerprint_rarity",   "nip_anomaly",
    "name_patterns",        "sms_anomaly",             "graph_ring",
};

std::vector<MetricSpec> per_layer_specs() {
  std::vector<MetricSpec> specs = {
      {"sim.events", "count"},
      {"sim.event_p50_ns", "ns"},
      {"sim.event_p99_ns", "ns"},
      {"sim.queue_peak", "count"},
      {"sim.events_per_s", "1/s"},
      {"app.calls", "count"},
      {"app.call_p50_ns", "ns"},
      {"app.call_p99_ns", "ns"},
      {"app.call_samples", "count"},
      {"app.denied_share", "ratio"},
      {"app.weblog_rows", "count"},
      {"app.legit_denied_pct", "%"},
      {"app.abuse_served_pct", "%"},
      {"mitigate.evaluate_ns", "ns"},
      {"mitigate.evaluate_p99_ns", "ns"},
      {"mitigate.evaluate_share", "ratio"},
      {"mitigate.sweep_ns", "ns"},
      {"mitigate.sweeps", "count"},
      {"mitigate.sweep_p99_ns", "ns"},
      {"mitigate.actions", "count"},
      {"airline.expiry_sweep_ns", "ns"},
      {"airline.expiry_sweeps", "count"},
      {"airline.holds", "count"},
      {"airline.holds_expired", "count"},
      {"sms.sent", "count"},
      {"sms.retries", "count"},
      {"sms.rejected", "count"},
      {"graph.ingest_ns", "ns"},
      {"graph.ingest_p99_ns", "ns"},
      {"graph.ingest_share", "ratio"},
      {"graph.nodes", "count"},
      {"graph.edges", "count"},
      {"invariant.check_ns", "ns"},
      {"invariant.checks", "count"},
      {"obs.trace_cost_pct", "%"},
      {"detect.sessionize_ns", "ns"},
      {"detect.sessions", "count"},
      {"detect.epochs", "count"},
  };
  for (const char* family : kFamilies) {
    specs.push_back({std::string("detect.") + family + "_ns", "ns"});
    specs.push_back({std::string("detect.") + family + "_alerts", "count"});
  }
  const std::vector<MetricSpec> tail = {
      {"detect.overhead_ns", "ns"},
      {"detect.sessions_per_s", "1/s"},
      {"detect.f1", "ratio"},
      {"scale.events", "count"},
      {"scale.messages", "count"},
      {"scale.barriers", "count"},
      {"scale.graph_events", "count"},
      {"scale.messages_per_event", "ratio"},
      {"scale.t1_events_per_s", "1/s"},
      {"scale.t2_events_per_s", "1/s"},
      {"scale.serial_events_per_s", "1/s"},
      {"scale.parallel_speedup", "ratio"},
      {"scale.shard_gain", "ratio"},
      {"trace.overhead_pct", "%"},
      {"trace.unattributed_share", "ratio"},
      {"run.failed_pct", "%"},
  };
  specs.insert(specs.end(), tail.begin(), tail.end());
  return specs;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Orders the measured metrics by the declared list; a declared metric the
// workload did not measure is 0 in a traced run (the layer did no work) and a
// problem in an untraced one, and an undeclared metric is always a problem.
std::vector<Metric> conform(RunResult& result, const std::vector<MetricSpec>& specs,
                            bool zero_fill) {
  std::map<std::string, Metric> measured;
  for (const Metric& m : result.metrics) measured[m.name] = m;
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    auto it = measured.find(spec.name);
    if (it == measured.end()) {
      if (!zero_fill) result.problems.push_back("metric not measured: " + spec.name);
      out.push_back(Metric{spec.name, 0.0, spec.unit});
      continue;
    }
    if (it->second.unit != spec.unit) {
      result.problems.push_back("metric " + it->second.name + " has unit " + it->second.unit +
                                ", declared " + spec.unit);
    }
    out.push_back(it->second);
    measured.erase(it);
  }
  for (const auto& [name, m] : measured) result.problems.push_back("undeclared metric: " + name);
  return out;
}

int usage(const char* why) {
  std::cerr << "platform_bench: " << why
            << "\nusage: platform_bench --workload <doi_live|sms_pump_live|soc_detect|"
               "scale_sharded> --seed N --seconds S --trace 0|1 [--smoke] [--trace-out FILE] "
               "[--source ID]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::map<std::string, std::function<RunResult(const Options&)>> workloads = {
      {"doi_live", run_doi_live},
      {"sms_pump_live", run_sms_pump_live},
      {"soc_detect", run_soc_detect},
      {"scale_sharded", run_scale_sharded},
  };
  Options options;
  std::string workload;
  std::string source = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--trace-out") {
      options.trace_path = value();
    } else if (arg == "--source") {
      source = value();
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const auto entry = workloads.find(workload);
  if (entry == workloads.end()) return usage("unknown workload");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  std::cout.precision(10);
  std::cout << "machine " << machine_fingerprint(source) << "\n";
  if (!optimised_build()) {
    std::cout << "WARNING: unoptimised build — timings are not comparable\n";
  }
  std::cout << "run workload=" << workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << (options.trace ? 1 : 0)
            << (options.smoke ? " smoke" : "") << "\n";

  RunResult result = entry->second(options);
  const std::vector<Metric> metrics = options.trace
                                         ? conform(result, per_layer_specs(), true)
                                         : conform(result, kEndToEnd, false);
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " " << json_number(m.value) << " " << m.unit << "\n";
  }
  for (const std::string& problem : result.problems) std::cout << "problem " << problem << "\n";
  const bool correct = result.problems.empty();
  // A failed correctness check fails the whole run.
  const std::uint64_t attempted = std::max<std::uint64_t>(result.attempted, 1);
  const std::uint64_t failed = correct ? result.failed : attempted;

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}
