// Unit tests for the observability layer (src/obs) and its JSON emission
// (exp/metrics_io): handle stability, bucket-edge semantics, the
// deterministic shard-merge contract, and the snapshot -> JSON rendering
// the bench artifacts rely on.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "exp/mc_experiments.h"
#include "exp/metrics_io.h"
#include "obs/macros.h"
#include "obs/metrics.h"

namespace sudoku::obs {
namespace {

// ---- counters and gauges ---------------------------------------------

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, MergeKeepsRhsValueOnlyWhenRhsWasSet) {
  Gauge a, b;
  a.set(1.5);
  a += b;  // b never set: a's value survives
  EXPECT_DOUBLE_EQ(a.value(), 1.5);
  EXPECT_EQ(a.samples(), 1u);
  b.set(2.5);
  a += b;  // b set: last-shard-wins
  EXPECT_DOUBLE_EQ(a.value(), 2.5);
  EXPECT_EQ(a.samples(), 2u);
}

// ---- histogram bucket semantics --------------------------------------

TEST(Histogram, BucketEdgesAreHalfOpen) {
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.buckets().size(), 4u);  // underflow + 2 interior + overflow
  h.observe(0.999);  // underflow: v < edges[0]
  h.observe(1.0);    // exactly on an edge lands in the bucket it opens
  h.observe(1.999);
  h.observe(2.0);
  h.observe(3.999);
  h.observe(4.0);    // exactly on the last edge: overflow
  h.observe(1e9);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[3], 2u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.min(), 0.999);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(Histogram, ZeroObservations) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  for (const auto b : h.buckets()) EXPECT_EQ(b, 0u);
  // Merging an empty histogram is a no-op on the counts.
  Histogram other({1.0, 2.0});
  other.observe(1.5);
  other += h;
  EXPECT_EQ(other.count(), 1u);
}

TEST(Histogram, NegativeAndExtremeValues) {
  Histogram h({0.0, 10.0});
  h.observe(-1e300);
  h.observe(1e300);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), -1e300);
  EXPECT_DOUBLE_EQ(h.max(), 1e300);
}

// percentile() interpolates linearly inside the crossing bucket, so it is
// exact where the cumulative distribution touches a bucket edge.
TEST(Histogram, PercentileExactAtBucketEdges) {
  Histogram h({10.0, 20.0, 30.0});
  // 10 observations in [10,20), 10 in [20,30): the CDF reaches 0.5 exactly
  // at edge 20 and 1.0 at edge 30.
  for (int i = 0; i < 10; ++i) h.observe(12.0);
  for (int i = 0; i < 10; ++i) h.observe(25.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 20.0);
  // Interior quantiles interpolate: 0.25 is halfway through bucket [10,20).
  EXPECT_DOUBLE_EQ(h.percentile(0.25), 15.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.75), 25.0);
}

TEST(Histogram, PercentileClampsToObservedRange) {
  Histogram h({10.0, 20.0});
  h.observe(14.0);
  h.observe(16.0);
  // q=0/1 return the tracked extremes, and no interior quantile can leave
  // [min, max] even though the bucket spans [10, 20).
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 14.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 16.0);
  EXPECT_GE(h.percentile(0.01), 14.0);
  EXPECT_LE(h.percentile(0.99), 16.0);
}

TEST(Histogram, PercentileOpenEndedBucketsUseTrackedExtremes) {
  Histogram h({10.0, 20.0});
  // All mass in the overflow bucket [20, inf): its missing right boundary
  // is the tracked max, so quantiles interpolate over [20, 100].
  h.observe(20.0);
  h.observe(100.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 60.0);
  // All mass in underflow (-inf, 10): left boundary is the tracked min.
  Histogram u({10.0, 20.0});
  u.observe(2.0);
  u.observe(6.0);
  EXPECT_DOUBLE_EQ(u.percentile(0.5), 6.0);  // min + (10-min)/2
  EXPECT_DOUBLE_EQ(u.percentile(1.0), 6.0);
}

TEST(Histogram, PercentileEmptyReturnsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(Histogram, SummaryMatchesPercentiles) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 1000; ++i) h.observe(1.5);
  h.observe(7.0);
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 1001u);
  EXPECT_DOUBLE_EQ(s.p50, h.percentile(0.5));
  EXPECT_DOUBLE_EQ(s.p99, h.percentile(0.99));
  EXPECT_DOUBLE_EQ(s.p999, h.percentile(0.999));
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  // The single outlier only surfaces past p999's crossing point.
  EXPECT_LT(s.p99, 2.0);
}

// Quantiles of shard-merged registries must equal quantiles of the union
// of observations — the property the service relies on when it merges
// per-client latency histograms.
TEST(Histogram, MergedShardsGiveSameQuantilesAsUnion) {
  const std::vector<double> edges{10.0, 20.0, 40.0, 80.0};
  MetricsRegistry a, b, whole;
  Histogram* ha = a.histogram("lat", edges);
  Histogram* hb = b.histogram("lat", edges);
  Histogram* hw = whole.histogram("lat", edges);
  for (int i = 0; i < 100; ++i) {
    const double v = 10.0 + static_cast<double>(i);
    ((i % 2) ? ha : hb)->observe(v);
    hw->observe(v);
  }
  MetricsRegistry merged;
  merged += a;
  merged += b;
  const Histogram* hm = merged.find_histogram("lat");
  ASSERT_NE(hm, nullptr);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(hm->percentile(q), hw->percentile(q)) << q;
  }
}

TEST(HistogramDeathTest, RejectsBadEdges) {
  EXPECT_DEATH(Histogram(std::vector<double>{}), "edges");
  EXPECT_DEATH(Histogram({2.0, 1.0}), "ascending");
  EXPECT_DEATH(Histogram({1.0, 1.0}), "ascending");
}

TEST(HistogramDeathTest, MergeRejectsMismatchedEdges) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 3.0});
  EXPECT_DEATH(a += b, "edges");
}

// ---- registry ---------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  Counter* c = reg.counter("a.count");
  EXPECT_EQ(reg.counter("a.count"), c);  // same handle on re-registration
  c->inc();
  // Handles survive a move of the registry (node-based storage).
  MetricsRegistry moved = std::move(reg);
  c->inc();
  EXPECT_EQ(moved.find_counter("a.count")->value(), 2u);
}

TEST(MetricsRegistry, FindWithoutCreation) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.find_gauge("missing"), nullptr);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
  EXPECT_TRUE(reg.empty());
  reg.gauge("g")->set(1.0);
  EXPECT_FALSE(reg.empty());
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistryDeathTest, KindCollisionAborts) {
  MetricsRegistry a;
  a.counter("x");
  EXPECT_DEATH(a.gauge("x"), "x");
  MetricsRegistry b;
  b.gauge("x")->set(1.0);
  MetricsRegistry c;
  c.counter("x")->inc();
  EXPECT_DEATH(b += c, "x");
}

TEST(MetricsRegistryDeathTest, HistogramRedefinitionAborts) {
  MetricsRegistry reg;
  reg.histogram("h", {1.0, 2.0});
  EXPECT_DEATH(reg.histogram("h", {1.0, 3.0}), "h");
}

TEST(MetricsRegistry, SnapshotIsSortedByName) {
  MetricsRegistry reg;
  reg.histogram("z.hist", {1.0})->observe(0.5);
  reg.counter("a.count")->inc();
  reg.gauge("m.gauge")->set(3.0);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.count");
  EXPECT_EQ(snap[1].name, "m.gauge");
  EXPECT_EQ(snap[2].name, "z.hist");
  EXPECT_EQ(snap[0].kind, MetricSample::Kind::kCounter);
  EXPECT_EQ(snap[1].kind, MetricSample::Kind::kGauge);
  EXPECT_EQ(snap[2].kind, MetricSample::Kind::kHistogram);
}

// ---- deterministic shard merge ----------------------------------------

// Populate one shard's registry from its trial range, mimicking how the
// exp engine gives every shard its own registry and merges in shard-index
// order. The per-trial updates depend only on the global trial index, so
// any sharding of [0, trials) must reduce to the same registry.
void run_shard(MetricsRegistry& reg, std::uint64_t first, std::uint64_t count) {
  Counter* events = reg.counter("t.events");
  Gauge* last = reg.gauge("t.last_trial");
  Histogram* spread = reg.histogram("t.spread", {8.0, 32.0, 128.0});
  for (std::uint64_t t = first; t < first + count; ++t) {
    events->inc(t % 3);
    last->set(static_cast<double>(t));
    spread->observe(static_cast<double>(t % 200));
  }
}

MetricsRegistry merged_over(std::uint64_t trials, std::uint64_t shards) {
  std::vector<MetricsRegistry> parts(shards);
  const std::uint64_t chunk = (trials + shards - 1) / shards;
  std::uint64_t first = 0;
  for (std::uint64_t s = 0; s < shards && first < trials; ++s) {
    const std::uint64_t count = std::min(chunk, trials - first);
    run_shard(parts[s], first, count);
    first += count;
  }
  MetricsRegistry total;
  for (auto& p : parts) total += p;  // shard-index order
  return total;
}

TEST(MetricsRegistry, ShardedMergeIsBitIdenticalFor1And2And8Shards) {
  const auto r1 = merged_over(1000, 1);
  const auto r2 = merged_over(1000, 2);
  const auto r8 = merged_over(1000, 8);
  // The rendered artifact is the strongest equality we can assert — it
  // covers every counter value, gauge value/sample count, bucket count
  // and double sum bit-for-bit (json_number is round-trip exact).
  const std::string j1 = exp::metrics_to_json(r1).str();
  EXPECT_EQ(j1, exp::metrics_to_json(r2).str());
  EXPECT_EQ(j1, exp::metrics_to_json(r8).str());
  EXPECT_EQ(r1.find_counter("t.events")->value(), 999u);
  EXPECT_DOUBLE_EQ(r1.find_gauge("t.last_trial")->value(), 999.0);
  EXPECT_EQ(r1.find_histogram("t.spread")->count(), 1000u);
}

TEST(MetricsRegistry, MergeUnionsDisjointNames) {
  MetricsRegistry a, b;
  a.counter("only.a")->inc(5);
  b.counter("only.b")->inc(7);
  b.histogram("only.b.hist", {1.0})->observe(2.0);
  a += b;
  EXPECT_EQ(a.find_counter("only.a")->value(), 5u);
  EXPECT_EQ(a.find_counter("only.b")->value(), 7u);
  EXPECT_EQ(a.find_histogram("only.b.hist")->overflow(), 1u);
}

// The end-to-end acceptance property: the Monte-Carlo experiment's merged
// registry (riding inside McResult through the engine's parallel_for) renders
// identically for 1 and 8 threads.
TEST(MetricsRegistry, EngineMergedMetricsIdenticalAcrossThreadCounts) {
  reliability::McConfig cfg;
  cfg.cache.num_lines = 1ull << 12;
  cfg.cache.group_size = 64;
  cfg.cache.ber = 2e-4;
  cfg.level = SudokuLevel::kX;
  cfg.max_intervals = 120;
  cfg.seed = 42;
  const auto r1 = exp::run_montecarlo_parallel(cfg, {.threads = 1, .chunk = 16});
  const auto r8 = exp::run_montecarlo_parallel(cfg, {.threads = 8, .chunk = 16});
#if SUDOKU_OBS_ENABLED
  ASSERT_FALSE(r1.metrics.empty());
  EXPECT_GT(r1.metrics.find_counter("mc.intervals")->value(), 0u);
#endif
  EXPECT_EQ(exp::metrics_to_json(r1.metrics).str(),
            exp::metrics_to_json(r8.metrics).str());
}

// ---- snapshot -> JSON round trip --------------------------------------

TEST(MetricsIo, RendersEveryKindWithExactValues) {
  MetricsRegistry reg;
  reg.counter("c")->inc(7);
  reg.gauge("g")->set(2.5);
  Histogram* h = reg.histogram("h", {1.0, 2.0});
  h->observe(0.5);
  h->observe(1.5);
  h->observe(3.5);
  const std::string json = exp::metrics_to_json(reg).str();
  EXPECT_EQ(json,
            "{\"c\":7,"
            "\"g\":{\"gauge\":2.5,\"samples\":1},"
            "\"h\":{\"edges\":[1,2],\"buckets\":[1,1,1],\"count\":3,"
            "\"sum\":5.5,\"min\":0.5,\"max\":3.5}}");
}

TEST(MetricsIo, EmptyHistogramOmitsMinMax) {
  MetricsRegistry reg;
  reg.histogram("h", {1.0});
  const std::string json = exp::metrics_to_json(reg).str();
  EXPECT_EQ(json, "{\"h\":{\"edges\":[1],\"buckets\":[0,0],\"count\":0,\"sum\":0}}");
}

TEST(MetricsIo, EmptyRegistryRendersEmptyObject) {
  MetricsRegistry reg;
  EXPECT_EQ(exp::metrics_to_json(reg).str(), "{}");
}

// ---- macros -----------------------------------------------------------

TEST(ObsMacros, NullHandlesAreSafe) {
  Counter* c = nullptr;
  Gauge* g = nullptr;
  Histogram* h = nullptr;
  OBS_INC(c);
  OBS_ADD(c, 5);
  OBS_SET(g, 1.0);
  OBS_OBSERVE(h, 1.0);
  SUCCEED();  // detached instrumentation must be a no-op, not a crash
}

TEST(ObsMacros, LiveHandlesRecord) {
  MetricsRegistry reg;
  Counter* c = reg.counter("m.c");
  Histogram* h = reg.histogram("m.h", {10.0});
  OBS_INC(c);
  OBS_ADD(c, 2);
  OBS_OBSERVE(h, 3.0);
#if SUDOKU_OBS_ENABLED
  EXPECT_EQ(c->value(), 3u);
  EXPECT_EQ(h->count(), 1u);
#else
  EXPECT_EQ(c->value(), 0u);  // macros compiled out
  EXPECT_EQ(h->count(), 0u);
#endif
}

}  // namespace
}  // namespace sudoku::obs
