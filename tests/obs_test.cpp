#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/obs/metrics.hpp"
#include "core/obs/obs.hpp"
#include "core/obs/trace.hpp"
#include "util/archive.hpp"

namespace fraudsim::obs {
namespace {

// --- Metrics registry -------------------------------------------------------

TEST(MetricsRegistry, CounterStartsAtZeroAndIncrements) {
  MetricsRegistry registry;
  const Counter c = registry.counter("a");
  EXPECT_TRUE(c.bound());
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(3);
  EXPECT_EQ(c.value(), 4u);
  EXPECT_EQ(registry.counter_value("a"), 4u);
}

TEST(MetricsRegistry, UnboundHandlesNoOp) {
  const Counter c;
  const Gauge g;
  const Histogram h;
  c.inc();
  g.set(5.0);
  h.observe(1.0);
  EXPECT_FALSE(c.bound());
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(MetricsRegistry, ReRegisteringReturnsTheSameCell) {
  MetricsRegistry registry;
  const Counter first = registry.counter("shared");
  const Counter second = registry.counter("shared");
  first.inc();
  second.inc();
  EXPECT_EQ(first.value(), 2u);
  EXPECT_EQ(second.value(), 2u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistry, HandlesSurviveLaterRegistrations) {
  MetricsRegistry registry;
  const Counter c = registry.counter("m");
  // Force rebalancing/allocation churn in the name map.
  for (int i = 0; i < 100; ++i) registry.counter("m." + std::to_string(i));
  c.inc(7);
  EXPECT_EQ(registry.counter_value("m"), 7u);
}

TEST(MetricsRegistry, CounterValueAbsentIsZero) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter_value("missing"), 0u);
  registry.gauge("g").set(3.0);
  EXPECT_EQ(registry.counter_value("g"), 0u);  // kind mismatch reads as 0
}

TEST(MetricsRegistry, CountersWithPrefix) {
  MetricsRegistry registry;
  registry.counter("app.requests").inc(2);
  registry.counter("app.blocked").inc();
  registry.counter("application").inc();  // shares a prefix of the prefix
  registry.counter("sms.delivered").inc();
  const auto rows = registry.counters_with_prefix("app.");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "app.blocked");
  EXPECT_EQ(rows[0].second, 1u);
  EXPECT_EQ(rows[1].first, "app.requests");
  EXPECT_EQ(rows[1].second, 2u);
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  MetricsRegistry registry;
  const Gauge g = registry.gauge("depth");
  g.set(10.0);
  g.add(-3.0);
  EXPECT_EQ(g.value(), 7.0);
}

// --- Histogram --------------------------------------------------------------

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  const Histogram h = registry.histogram("lat", {10.0, 20.0});
  // A value exactly on a bound lands in that bound's bucket.
  h.observe(10.0);
  h.observe(10.1);
  h.observe(20.0);
  h.observe(20.1);  // overflow bucket
  const auto snap = registry.snapshot();
  const auto* row = snap.find("lat");
  ASSERT_NE(row, nullptr);
  ASSERT_EQ(row->buckets.size(), 3u);
  EXPECT_EQ(row->buckets[0].first, 10.0);
  EXPECT_EQ(row->buckets[0].second, 1u);
  EXPECT_EQ(row->buckets[1].first, 20.0);
  EXPECT_EQ(row->buckets[1].second, 2u);
  EXPECT_EQ(row->buckets[2].second, 1u);  // +inf overflow
}

TEST(Histogram, TracksCountSumMinMax) {
  MetricsRegistry registry;
  const Histogram h = registry.histogram("x", default_latency_bounds_ms());
  h.observe(5.0);
  h.observe(100.0);
  h.observe(1.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 106.0);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 100.0);
}

TEST(Histogram, PercentilesAreMonotoneAndClamped) {
  MetricsRegistry registry;
  const Histogram h = registry.histogram("lat", default_latency_bounds_ms());
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const double p50 = h.percentile(0.50);
  const double p90 = h.percentile(0.90);
  const double p99 = h.percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
  EXPECT_EQ(h.percentile(0.0), h.min());
  EXPECT_EQ(h.percentile(1.0), h.max());
}

TEST(Histogram, EmptyAndSingleSamplePercentiles) {
  MetricsRegistry registry;
  const Histogram empty = registry.histogram("e", {1.0, 2.0});
  EXPECT_EQ(empty.percentile(0.5), 0.0);
  EXPECT_EQ(empty.percentile(0.99), 0.0);

  const Histogram one = registry.histogram("o", {1.0, 2.0});
  one.observe(1.5);
  EXPECT_EQ(one.percentile(0.0), 1.5);
  EXPECT_EQ(one.percentile(0.5), 1.5);
  EXPECT_EQ(one.percentile(0.99), 1.5);
  EXPECT_EQ(one.percentile(1.0), 1.5);
}

TEST(Histogram, OverflowBucketPercentileStaysWithinObservedRange) {
  MetricsRegistry registry;
  const Histogram h = registry.histogram("o", {10.0});
  h.observe(1000.0);
  h.observe(2000.0);
  EXPECT_GE(h.percentile(0.99), 1000.0);
  EXPECT_LE(h.percentile(0.99), 2000.0);
}

// --- Snapshot exports -------------------------------------------------------

TEST(MetricsRegistry, RestoreRejectsHostileCells) {
  // One-cell registry blob: the name, then the given kind byte, counter,
  // gauge, `bounds` bounds, `buckets` buckets and the histogram scalars.
  const auto blob = [](std::uint64_t cells, const char* name, std::uint8_t kind,
                       std::uint64_t bounds, std::uint64_t buckets) {
    util::ByteWriter out;
    out.u64(cells);
    out.str(name);
    out.u8(kind);
    out.u64(0);
    out.f64(0.0);
    out.u64(bounds);
    for (std::uint64_t i = 0; i < bounds; ++i) out.f64(static_cast<double>(i + 1));
    out.u64(buckets);
    for (std::uint64_t i = 0; i < buckets; ++i) out.u64(0);
    out.u64(0);
    out.f64(0.0);
    out.f64(0.0);
    out.f64(0.0);
    return out.take();
  };
  const auto histogram = static_cast<std::uint8_t>(obs::MetricKind::Histogram);
  const auto gauge = static_cast<std::uint8_t>(obs::MetricKind::Gauge);
  struct Case {
    const char* name;
    std::string bytes;
    bool ok;
  };
  const std::vector<Case> cases = {
      {"a complete histogram layout", blob(1, "h", histogram, 3, 4), true},
      {"cell count of 2^40", blob(std::uint64_t{1} << 40, "h", histogram, 3, 4), false},
      {"kind byte past Histogram", blob(1, "g", 3, 0, 0), false},
      {"kind other than the registered one", blob(1, "h", gauge, 0, 0), false},
      {"one bucket short of the bounds", blob(1, "h", histogram, 3, 3), false},
      {"a gauge with a bucket layout", blob(1, "g", gauge, 0, 1), false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    obs::MetricsRegistry registry;
    const auto h = registry.histogram("h", {1, 2, 3});
    util::ByteReader in(c.bytes);
    registry.restore(in);
    EXPECT_EQ(in.ok(), c.ok);
    // The handle stays usable either way: a rejected cell is left as it was.
    h.observe(10.0);
    EXPECT_EQ(h.count(), 1u);
  }
}

TEST(MetricsSnapshot, RowsAreSortedByName) {
  MetricsRegistry registry;
  registry.counter("zeta").inc();
  registry.counter("alpha").inc();
  registry.gauge("mid").set(1.0);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.rows.size(), 3u);
  EXPECT_EQ(snap.rows[0].name, "alpha");
  EXPECT_EQ(snap.rows[1].name, "mid");
  EXPECT_EQ(snap.rows[2].name, "zeta");
}

// Two registries populated identically must export byte-identical artefacts —
// the determinism contract every CI diff relies on.
TEST(MetricsSnapshot, ExportsAreByteStable) {
  auto populate = [](MetricsRegistry& r) {
    r.counter("app.requests").inc(42);
    r.gauge("queue.depth").set(3.25);
    const Histogram h = r.histogram("latency", {1.0, 10.0, 100.0});
    h.observe(0.5);
    h.observe(12.0);
    h.observe(250.0);
  };
  MetricsRegistry a;
  MetricsRegistry b;
  populate(a);
  populate(b);

  std::ostringstream csv_a;
  std::ostringstream csv_b;
  a.snapshot().write_csv(csv_a);
  b.snapshot().write_csv(csv_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());

  std::ostringstream json_a;
  std::ostringstream json_b;
  a.snapshot().write_jsonl(json_a);
  b.snapshot().write_jsonl(json_b);
  EXPECT_EQ(json_a.str(), json_b.str());

  EXPECT_EQ(a.snapshot().render_table(), b.snapshot().render_table());
  // And re-snapshotting the same registry is stable too.
  EXPECT_EQ(a.snapshot().render_table(), a.snapshot().render_table());
}

TEST(MetricsSnapshot, CsvHasHeaderAndOneRowPerMetric) {
  MetricsRegistry registry;
  registry.counter("a").inc();
  registry.counter("b").inc();
  std::ostringstream out;
  registry.snapshot().write_csv(out);
  const std::string csv = out.str();
  EXPECT_EQ(csv.find("name,kind,count,value,p50,p90,p99\n"), 0u);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

// --- Shard merge -------------------------------------------------------------

TEST(MetricsMerge, MergingShardsEqualsObservingEverythingInOneRegistry) {
  const std::vector<double> bounds = {1.0, 5.0, 25.0};
  MetricsRegistry shard_a;
  MetricsRegistry shard_b;
  MetricsRegistry combined;
  const auto feed = [&bounds](MetricsRegistry& r, std::uint64_t hits, double load,
                              const std::vector<double>& samples) {
    r.counter("requests").inc(hits);
    r.gauge("load").add(load);
    const Histogram h = r.histogram("latency", bounds);
    for (const double v : samples) h.observe(v);
  };
  feed(shard_a, 3, 1.5, {0.5, 4.0, 30.0});
  feed(shard_b, 9, 2.5, {2.0, 2.0, 100.0, 0.1});
  feed(combined, 3, 1.5, {0.5, 4.0, 30.0});
  feed(combined, 9, 2.5, {2.0, 2.0, 100.0, 0.1});

  MetricsRegistry merged;
  merged.merge(shard_a);
  merged.merge(shard_b);
  EXPECT_EQ(merged.snapshot().render_table(), combined.snapshot().render_table());
  EXPECT_EQ(merged.counter_value("requests"), 12u);
  EXPECT_EQ(merged.gauge("load").value(), 4.0);
  const Histogram h = merged.histogram("latency", bounds);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.min(), 0.1);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(MetricsMerge, MergeIntoEmptyRegistryClonesTheShard) {
  MetricsRegistry shard;
  shard.counter("c").inc(5);
  shard.gauge("g").set(-2.0);
  const Histogram h = shard.histogram("h", {10.0});
  h.observe(3.0);
  h.observe(42.0);

  MetricsRegistry empty;
  empty.merge(shard.snapshot());
  EXPECT_EQ(empty.snapshot().render_table(), shard.snapshot().render_table());
}

TEST(MetricsMerge, MergeOrderDoesNotMatter) {
  const std::vector<double> bounds = {2.0, 8.0};
  std::vector<MetricsRegistry> shards(3);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    shards[i].counter("n").inc(i + 1);
    shards[i].histogram("h", bounds).observe(static_cast<double>(i) * 3.0);
  }
  MetricsRegistry forward;
  for (const auto& s : shards) forward.merge(s);
  MetricsRegistry backward;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) backward.merge(*it);
  EXPECT_EQ(forward.snapshot().render_table(), backward.snapshot().render_table());
}

TEST(MetricsMerge, EmptyHistogramShardLeavesExtremaUntouched) {
  MetricsRegistry with_samples;
  with_samples.histogram("h", {1.0}).observe(0.25);
  MetricsRegistry empty_hist;
  (void)empty_hist.histogram("h", {1.0});  // registered, never observed

  MetricsRegistry merged;
  merged.merge(with_samples);
  merged.merge(empty_hist);
  const Histogram h = merged.histogram("h", {1.0});
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 0.25);
}

// --- Trace recorder ---------------------------------------------------------

TEST(TraceRecorder, RecordsNestedSpans) {
  TraceRecorder recorder(TraceConfig{.ring_capacity = 16, .sample_every = 1});
  const TraceContext root = recorder.start_trace("request", 100);
  ASSERT_TRUE(root.sampled());
  const TraceContext child = root.child("inventory.hold", 110);
  child.annotate("flight", "42");
  child.set_outcome("ok");
  child.finish(120);
  root.set_outcome("ok");
  root.finish(130);

  const auto spans = recorder.completed();
  ASSERT_EQ(spans.size(), 2u);
  // Children finish first, so they land in the ring first.
  const SpanRecord& c = spans[0];
  const SpanRecord& r = spans[1];
  EXPECT_EQ(c.name, "inventory.hold");
  EXPECT_EQ(c.trace, r.trace);
  EXPECT_EQ(c.parent, r.span);
  EXPECT_EQ(r.parent, 0u);
  EXPECT_EQ(c.start, 110);
  EXPECT_EQ(c.end, 120);
  ASSERT_EQ(c.annotations.size(), 1u);
  EXPECT_EQ(c.annotations[0].key, "flight");
  EXPECT_EQ(c.annotations[0].value, "42");
  EXPECT_EQ(r.outcome, "ok");
  EXPECT_EQ(recorder.open_spans(), 0u);
}

TEST(TraceRecorder, DoubleFinishIsANoOp) {
  TraceRecorder recorder(TraceConfig{.ring_capacity = 8, .sample_every = 1});
  const TraceContext root = recorder.start_trace("r", 0);
  root.finish(10);
  root.finish(20);
  EXPECT_EQ(recorder.completed().size(), 1u);
  EXPECT_EQ(recorder.completed()[0].end, 10);
}

TEST(TraceRecorder, SamplingIsDeterministicOnTheTraceCounter) {
  TraceRecorder recorder(TraceConfig{.ring_capacity = 64, .sample_every = 4});
  std::vector<TraceId> sampled_ids;
  for (int i = 0; i < 12; ++i) {
    const TraceContext t = recorder.start_trace("r", i);
    if (t.sampled()) sampled_ids.push_back(t.trace_id());
    t.finish(i);
  }
  EXPECT_EQ(recorder.traces_started(), 12u);
  EXPECT_EQ(recorder.traces_sampled(), 3u);
  // Every 4th trace starting with the first; ids are 1-based and sequential.
  EXPECT_EQ(sampled_ids, (std::vector<TraceId>{1, 5, 9}));

  // An identical second recorder samples the identical traces.
  TraceRecorder again(TraceConfig{.ring_capacity = 64, .sample_every = 4});
  std::vector<TraceId> again_ids;
  for (int i = 0; i < 12; ++i) {
    const TraceContext t = again.start_trace("r", i);
    if (t.sampled()) again_ids.push_back(t.trace_id());
    t.finish(i);
  }
  EXPECT_EQ(again_ids, sampled_ids);
}

TEST(TraceRecorder, SampleEveryZeroDisablesTracing) {
  TraceRecorder recorder(TraceConfig{.ring_capacity = 8, .sample_every = 0});
  const TraceContext t = recorder.start_trace("r", 0);
  EXPECT_FALSE(t.sampled());
  EXPECT_EQ(t.trace_id(), 0u);
  t.annotate("k", "v");  // all no-ops
  t.finish(1);
  EXPECT_EQ(recorder.traces_started(), 1u);
  EXPECT_EQ(recorder.traces_sampled(), 0u);
  EXPECT_EQ(recorder.completed().size(), 0u);
}

TEST(TraceRecorder, RingBufferKeepsTheMostRecentSpans) {
  TraceRecorder recorder(TraceConfig{.ring_capacity = 4, .sample_every = 1});
  for (int i = 0; i < 10; ++i) {
    const TraceContext t = recorder.start_trace("t" + std::to_string(i), i);
    t.finish(i + 1);
  }
  const auto spans = recorder.completed();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first: traces 6..9 survive.
  EXPECT_EQ(spans[0].name, "t6");
  EXPECT_EQ(spans[3].name, "t9");
  EXPECT_EQ(recorder.spans_recorded(), 10u);
}

TEST(TraceRecorder, WriteJsonlEmitsOneLinePerSpan) {
  TraceRecorder recorder(TraceConfig{.ring_capacity = 8, .sample_every = 1});
  const TraceContext root = recorder.start_trace("req", 5);
  root.annotate("rule", "ip-block");
  root.set_outcome("blocked");
  root.finish(9);
  std::ostringstream out;
  recorder.write_jsonl(out);
  const std::string line = out.str();
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
  EXPECT_NE(line.find("\"name\":\"req\""), std::string::npos);
  EXPECT_NE(line.find("\"outcome\":\"blocked\""), std::string::npos);
  EXPECT_NE(line.find("ip-block"), std::string::npos);
}

TEST(TraceRecorder, ClearResetsTheRingButNotTheCounter) {
  TraceRecorder recorder(TraceConfig{.ring_capacity = 8, .sample_every = 1});
  recorder.start_trace("a", 0).finish(1);
  recorder.clear();
  EXPECT_EQ(recorder.completed().size(), 0u);
  EXPECT_EQ(recorder.traces_started(), 1u);
}

// --- Observability bundle ---------------------------------------------------

TEST(Observability, BundlesMetricsAndTraces) {
  Observability obs(TraceConfig{.ring_capacity = 8, .sample_every = 1});
  obs.metrics.counter("x").inc();
  obs.traces.start_trace("r", 0).finish(1);
  EXPECT_EQ(obs.metrics.counter_value("x"), 1u);
  EXPECT_EQ(obs.traces.completed().size(), 1u);
}

}  // namespace
}  // namespace fraudsim::obs
