#include "core/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/format.hpp"
#include "util/table.hpp"

namespace fraudsim::obs {

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::Counter:
      return "counter";
    case MetricKind::Gauge:
      return "gauge";
    case MetricKind::Histogram:
      return "histogram";
  }
  return "?";
}

// --- Histogram --------------------------------------------------------------

void Histogram::observe(double v) const {
  if (cell_ == nullptr) return;
  detail::HistogramCell& h = cell_->hist;
  if (h.count == 0) {
    h.min = v;
    h.max = v;
  } else {
    h.min = std::min(h.min, v);
    h.max = std::max(h.max, v);
  }
  ++h.count;
  h.sum += v;
  const auto it = std::lower_bound(h.bounds.begin(), h.bounds.end(), v);
  ++h.buckets[static_cast<std::size_t>(it - h.bounds.begin())];
}

double histogram_percentile(const detail::HistogramCell& hist, double p) {
  if (hist.count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(hist.count);
  double cumulative = 0.0;
  for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
    const double c = static_cast<double>(hist.buckets[b]);
    if (c <= 0.0) continue;
    if (cumulative + c >= target) {
      const double lower = b == 0 ? hist.min : hist.bounds[b - 1];
      const double upper = b < hist.bounds.size() ? hist.bounds[b] : hist.max;
      if (c == 1.0) {
        // One sample in the bucket: every percentile that lands here is that
        // sample, so there is nothing to interpolate. Its exact value is
        // known when the bucket holds the distribution's min (first
        // non-empty) or max (last non-empty); otherwise the bucket midpoint
        // is the stable representative. Interpolating by p here used to
        // report different p50/p90/p99 out of a single observation.
        if (cumulative == 0.0) return hist.min;
        if (cumulative + c >= static_cast<double>(hist.count)) return hist.max;
        return std::clamp(lower + 0.5 * (upper - lower), hist.min, hist.max);
      }
      const double frac = std::clamp((target - cumulative) / c, 0.0, 1.0);
      const double v = lower + frac * (upper - lower);
      return std::clamp(v, hist.min, hist.max);
    }
    cumulative += c;
  }
  return hist.max;
}

double Histogram::percentile(double p) const {
  return cell_ != nullptr ? histogram_percentile(cell_->hist, p) : 0.0;
}

std::vector<double> default_latency_bounds_ms() {
  return {1,    2,    5,    10,   20,   50,    100,   200,   300,   400,    500,    700,
          1000, 1500, 2000, 3000, 5000, 8000,  12000, 20000, 30000, 60000,  120000, 300000};
}

// --- MetricsRegistry --------------------------------------------------------

detail::MetricCell& MetricsRegistry::cell(std::string_view name, MetricKind kind) {
  const auto it = cells_.find(name);
  if (it != cells_.end()) {
    // Handle reuse: same name -> same cell. Kind mismatches are programming
    // errors caught in debug builds.
    assert(it->second->kind == kind);
    (void)kind;
    return *it->second;
  }
  auto cell = std::make_unique<detail::MetricCell>();
  cell->kind = kind;
  detail::MetricCell& ref = *cell;
  cells_.emplace(std::string(name), std::move(cell));
  return ref;
}

Counter MetricsRegistry::counter(std::string_view name) {
  return Counter(&cell(name, MetricKind::Counter));
}

Gauge MetricsRegistry::gauge(std::string_view name) { return Gauge(&cell(name, MetricKind::Gauge)); }

Histogram MetricsRegistry::histogram(std::string_view name, std::vector<double> bounds) {
  detail::MetricCell& c = cell(name, MetricKind::Histogram);
  if (c.hist.buckets.empty()) {
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    c.hist.bounds = std::move(bounds);
    c.hist.buckets.assign(c.hist.bounds.size() + 1, 0);
  }
  return Histogram(&c);
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const auto it = cells_.find(name);
  if (it == cells_.end() || it->second->kind != MetricKind::Counter) return 0;
  return it->second->counter;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counters_with_prefix(
    std::string_view prefix) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (auto it = cells_.lower_bound(prefix); it != cells_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    if (it->second->kind != MetricKind::Counter) continue;
    out.emplace_back(it->first, it->second->counter);
  }
  return out;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.rows.reserve(cells_.size());
  for (const auto& [name, cell] : cells_) {
    MetricsSnapshot::Row row;
    row.name = name;
    row.kind = cell->kind;
    switch (cell->kind) {
      case MetricKind::Counter:
        row.count = cell->counter;
        break;
      case MetricKind::Gauge:
        row.value = cell->gauge;
        break;
      case MetricKind::Histogram: {
        const auto& h = cell->hist;
        row.count = h.count;
        row.value = h.sum;
        row.p50 = histogram_percentile(h, 0.50);
        row.p90 = histogram_percentile(h, 0.90);
        row.p99 = histogram_percentile(h, 0.99);
        row.min = h.min;
        row.max = h.max;
        row.buckets.reserve(h.buckets.size());
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
          const double bound =
              b < h.bounds.size() ? h.bounds[b] : std::numeric_limits<double>::infinity();
          row.buckets.emplace_back(bound, h.buckets[b]);
        }
        break;
      }
    }
    snap.rows.push_back(std::move(row));
  }
  return snap;
}

// --- MetricsSnapshot --------------------------------------------------------

namespace {

// Fixed-format double rendering so exports are byte-stable: integers print
// without a fractional part, everything else with 6 significant digits.
std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  return util::format_general(v, 6);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

const MetricsSnapshot::Row* MetricsSnapshot::find(std::string_view name) const {
  for (const auto& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  const Row* r = find(name);
  return r != nullptr && r->kind == MetricKind::Counter ? r->count : 0;
}

void MetricsSnapshot::checkpoint(util::ByteWriter& out) const {
  out.u64(rows.size());
  for (const Row& row : rows) {
    out.str(row.name);
    out.u8(static_cast<std::uint8_t>(row.kind));
    out.u64(row.count);
    out.f64(row.value);
    out.f64(row.p50);
    out.f64(row.p90);
    out.f64(row.p99);
    out.f64(row.min);
    out.f64(row.max);
    out.u64(row.buckets.size());
    for (const auto& [bound, count] : row.buckets) {
      out.f64(bound);
      out.u64(count);
    }
  }
}

void MetricsSnapshot::restore(util::ByteReader& in) {
  rows.clear();
  // Smallest row on the wire: empty name, kind, count, six doubles, no buckets.
  const std::uint64_t n = in.count(4 + 1 + 8 + 6 * 8 + 8);
  rows.reserve(n);
  for (std::uint64_t i = 0; i < n && in.ok(); ++i) {
    Row row;
    row.name = in.str();
    row.kind = static_cast<MetricKind>(in.u8());
    row.count = in.u64();
    row.value = in.f64();
    row.p50 = in.f64();
    row.p90 = in.f64();
    row.p99 = in.f64();
    row.min = in.f64();
    row.max = in.f64();
    const std::uint64_t buckets = in.count(2 * 8);
    row.buckets.reserve(buckets);
    for (std::uint64_t b = 0; b < buckets && in.ok(); ++b) {
      const double bound = in.f64();
      const std::uint64_t count = in.u64();
      row.buckets.emplace_back(bound, count);
    }
    rows.push_back(std::move(row));
  }
}

std::string MetricsSnapshot::render_table(const std::string& title) const {
  util::AsciiTable table({title, "kind", "count", "value", "p50", "p99"});
  for (const auto& r : rows) {
    switch (r.kind) {
      case MetricKind::Counter:
        table.add_row({r.name, "counter", std::to_string(r.count), "", "", ""});
        break;
      case MetricKind::Gauge:
        table.add_row({r.name, "gauge", "", format_double(r.value), "", ""});
        break;
      case MetricKind::Histogram:
        table.add_row({r.name, "histogram", std::to_string(r.count), format_double(r.value),
                       format_double(r.p50), format_double(r.p99)});
        break;
    }
  }
  return table.render();
}

void MetricsSnapshot::write_csv(std::ostream& out) const {
  out << "name,kind,count,value,p50,p90,p99\n";
  for (const auto& r : rows) {
    // std::to_string for the count: streaming the raw integer would pick up
    // thousands separators from a grouping-imbued stream.
    out << r.name << ',' << to_string(r.kind) << ',' << std::to_string(r.count) << ','
        << format_double(r.value) << ',' << format_double(r.p50) << ','
        << format_double(r.p90) << ',' << format_double(r.p99) << '\n';
  }
}

void MetricsSnapshot::write_jsonl(std::ostream& out) const {
  for (const auto& r : rows) {
    out << "{\"name\":\"" << json_escape(r.name) << "\",\"kind\":\"" << to_string(r.kind) << '"';
    switch (r.kind) {
      case MetricKind::Counter:
        out << ",\"value\":" << r.count;
        break;
      case MetricKind::Gauge:
        out << ",\"value\":" << format_double(r.value);
        break;
      case MetricKind::Histogram: {
        out << ",\"count\":" << r.count << ",\"sum\":" << format_double(r.value)
            << ",\"p50\":" << format_double(r.p50) << ",\"p90\":" << format_double(r.p90)
            << ",\"p99\":" << format_double(r.p99) << ",\"buckets\":[";
        for (std::size_t b = 0; b < r.buckets.size(); ++b) {
          if (b != 0) out << ',';
          out << "[\"" << format_double(r.buckets[b].first) << "\"," << r.buckets[b].second << ']';
        }
        out << ']';
        break;
      }
    }
    out << "}\n";
  }
}

void MetricsRegistry::merge(const MetricsSnapshot& shard) {
  for (const MetricsSnapshot::Row& row : shard.rows) {
    detail::MetricCell& c = cell(row.name, row.kind);
    assert(c.kind == row.kind);
    switch (row.kind) {
      case MetricKind::Counter:
        c.counter += row.count;
        break;
      case MetricKind::Gauge:
        c.gauge += row.value;
        break;
      case MetricKind::Histogram: {
        if (row.count == 0) break;
        detail::HistogramCell& h = c.hist;
        if (h.buckets.empty()) {
          // First shard defines the bucket layout.
          h.bounds.reserve(row.buckets.empty() ? 0 : row.buckets.size() - 1);
          for (std::size_t b = 0; b + 1 < row.buckets.size(); ++b) {
            h.bounds.push_back(row.buckets[b].first);
          }
          h.buckets.assign(h.bounds.size() + 1, 0);
        }
        // Shards of one series must share the bucket layout; a mismatch is a
        // programming error (different registrations under the same name).
        assert(h.buckets.size() == row.buckets.size());
        if (h.buckets.size() != row.buckets.size()) break;
        for (std::size_t b = 0; b < h.buckets.size(); ++b) h.buckets[b] += row.buckets[b].second;
        if (h.count == 0) {
          h.min = row.min;
          h.max = row.max;
        } else {
          h.min = std::min(h.min, row.min);
          h.max = std::max(h.max, row.max);
        }
        h.count += row.count;
        h.sum += row.value;
        break;
      }
    }
  }
}

void MetricsRegistry::merge(const MetricsRegistry& other) { merge(other.snapshot()); }

void MetricsRegistry::checkpoint(util::ByteWriter& out) const {
  out.u64(cells_.size());
  for (const auto& [name, cell] : cells_) {
    out.str(name);
    out.u8(static_cast<std::uint8_t>(cell->kind));
    out.u64(cell->counter);
    out.f64(cell->gauge);
    out.u64(cell->hist.bounds.size());
    for (double b : cell->hist.bounds) out.f64(b);
    out.u64(cell->hist.buckets.size());
    for (std::uint64_t b : cell->hist.buckets) out.u64(b);
    out.u64(cell->hist.count);
    out.f64(cell->hist.sum);
    out.f64(cell->hist.min);
    out.f64(cell->hist.max);
  }
}

void MetricsRegistry::restore(util::ByteReader& in) {
  // Smallest cell on the wire: empty name, kind, counter, gauge, two empty
  // lists and the four histogram scalars.
  const auto n = in.count(4 + 1 + 2 * 8 + 2 * 8 + 4 * 8);
  for (std::uint64_t i = 0; i < n && in.ok(); ++i) {
    const std::string name = in.str();
    auto kind = MetricKind::Counter;
    if (!in.read_enum(MetricKind::Histogram, kind)) return;
    const std::uint64_t counter = in.u64();
    const double gauge = in.f64();
    std::vector<double> bounds(in.count(8));
    for (double& b : bounds) b = in.f64();
    std::vector<std::uint64_t> buckets(in.count(8));
    for (std::uint64_t& b : buckets) b = in.u64();
    // Handles already issued for a name read its cell as the registered kind,
    // and Histogram::observe indexes one bucket past the bounds, so a cell
    // keeps its kind and only a histogram carries a layout — a complete one.
    const auto it = cells_.find(name);
    const bool layout_ok = kind == MetricKind::Histogram
                               ? buckets.size() == bounds.size() + 1
                               : bounds.empty() && buckets.empty();
    if (!in.ok() || !layout_ok || (it != cells_.end() && it->second->kind != kind)) {
      in.fail();
      return;
    }
    detail::MetricCell& c = cell(name, kind);
    c.counter = counter;
    c.gauge = gauge;
    c.hist.bounds = std::move(bounds);
    c.hist.buckets = std::move(buckets);
    c.hist.count = in.u64();
    c.hist.sum = in.f64();
    c.hist.min = in.f64();
    c.hist.max = in.f64();
  }
}

}  // namespace fraudsim::obs
