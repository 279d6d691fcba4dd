// Measurement primitives shared by every workload: wall clock, latency
// samples, in-memory span log (Chrome trace-event export), the metric report
// and the machine fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

// Exact order statistics over every recorded duration.
class Samples {
 public:
  void add(std::int64_t ns) {
    values_.push_back(ns);
    total_ += ns;
  }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] std::int64_t total() const { return total_; }
  [[nodiscard]] double mean() const {
    return values_.empty() ? 0.0
                           : static_cast<double>(total_) / static_cast<double>(values_.size());
  }
  // Nearest-rank percentile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double percentile(double q) const;

 private:
  std::vector<std::int64_t> values_;
  std::int64_t total_ = 0;
};

[[nodiscard]] double median(std::vector<double> values);

// A run measures several inputs derived from its seed, so its throughput
// rests on more than one draw of the workload.
inline constexpr int kInputs = 4;
[[nodiscard]] inline std::uint64_t input_seed(std::uint64_t seed, int input) {
  return seed * 16 + static_cast<std::uint64_t>(input);
}

// Which repetition of an input stands for its time. Each workload fixes its
// own, so a parent and a change are always read the same way.
//
// Other tenants of a shared machine slow repetitions down in bursts. An input
// with many short repetitions (soc_detect's detection passes) almost always
// has some that ran uncontended, so its fastest repetition is the steadiest
// reading of the code's own cost. An input with a few long repetitions (a
// live batch, a scale run) averages contention inside each repetition, and
// the median of them is steadier than the fastest.
enum class Reading { Fastest, Median };

// Throughput pooled over a run's inputs: each input's work over its
// representative repetition time, summed as total work over total time.
class PooledRate {
 public:
  PooledRate(int inputs, Reading reading)
      : reading_(reading),
        work_(static_cast<std::size_t>(inputs), 0.0),
        seconds_(static_cast<std::size_t>(inputs)) {}
  void add(int input, double work, double seconds);
  [[nodiscard]] double rate() const;

 private:
  Reading reading_;
  std::vector<double> work_;
  std::vector<std::vector<double>> seconds_;  // every repetition, per input
};

// Completed spans kept in memory and written once, at the end of the run, as
// Chrome trace-event JSON (opens in Perfetto / chrome://tracing). The log is
// bounded: past `capacity` spans it only counts what it dropped, so a long
// traced run cannot grow memory without limit.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {}

  // Ids are reserved up front so a child can name its parent before the
  // parent completes; `parent` links a span to the span that caused it.
  [[nodiscard]] std::uint64_t reserve() { return next_id_++; }
  // `name` must be a string literal (stored by pointer).
  void record(std::uint64_t id, const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t parent = 0);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] bool write_chrome_json(const std::string& path, const std::string& process) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint64_t id;
    std::uint64_t parent;
  };
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run produced: the metrics it measured, its correctness
// verdict and the attempted/failed operation counts.
struct RunResult {
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // failed correctness checks (empty = correct)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed operations (Overloaded calls, skipped families, ...)

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

// Returns the heap's free memory to the system between repetitions, so the
// peak resident set reflects the largest repetition, not how fragments of
// earlier ones happened to pile up.
void release_free_memory();

// Peak resident set of this process so far (getrusage), in MiB.
[[nodiscard]] double peak_rss_mb();

// Hardware threads available to this process.
[[nodiscard]] unsigned available_cores();

// One line describing the machine and build a result came from.
[[nodiscard]] std::string machine_fingerprint(const std::string& source_id);
[[nodiscard]] bool optimised_build();

}  // namespace perfbench
