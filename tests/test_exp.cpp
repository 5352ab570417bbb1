#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "baselines/cppc_cache.h"
#include "exp/engine.h"
#include "exp/json.h"
#include "exp/mc_experiments.h"
#include "exp/metrics_io.h"
#include "exp/result_sink.h"
#include "exp/seed_stream.h"
#include "exp/sharder.h"
#include "exp/thread_pool.h"

namespace sudoku::exp {
namespace {

using reliability::McConfig;
using reliability::McResult;

// Small accelerated configuration with observable failure rates so the
// determinism assertions exercise every correction path, in CI time.
McConfig accel_config() {
  McConfig cfg;
  cfg.cache.num_lines = 1ull << 12;
  cfg.cache.group_size = 64;
  cfg.cache.ber = 2e-4;
  cfg.level = SudokuLevel::kX;
  cfg.max_intervals = 200;
  cfg.seed = 42;
  return cfg;
}

void expect_identical(const McResult& a, const McResult& b) {
  EXPECT_EQ(a.intervals, b.intervals);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.ecc1_corrections, b.ecc1_corrections);
  EXPECT_EQ(a.raid4_repairs, b.raid4_repairs);
  EXPECT_EQ(a.sdr_repairs, b.sdr_repairs);
  EXPECT_EQ(a.hash2_invocations, b.hash2_invocations);
  EXPECT_EQ(a.groups_repaired, b.groups_repaired);
  EXPECT_EQ(a.due_lines, b.due_lines);
  EXPECT_EQ(a.sdc_lines, b.sdc_lines);
  EXPECT_EQ(a.failure_intervals, b.failure_intervals);
}

// ---- seed streams ----------------------------------------------------

TEST(SeedStream, DeterministicAndDistinct) {
  const SeedSequence seq(123);
  EXPECT_EQ(seq.stream(0), SeedSequence(123).stream(0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(seq.stream(i));
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions among trial streams
  EXPECT_NE(seq.stream(0), SeedSequence(124).stream(0));
}

TEST(SeedStream, FormatStreamOutsideTrialRange) {
  const SeedSequence seq(7);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_NE(seq.stream(i), seq.stream(kFormatStream));
  }
}

// ---- sharder ---------------------------------------------------------

TEST(Sharder, CoversRangeExactly) {
  const auto shards = make_shards(1000, 64);
  ASSERT_EQ(shards.size(), 16u);
  std::uint64_t next = 0;
  for (const auto& s : shards) {
    EXPECT_EQ(s.index, static_cast<std::uint64_t>(&s - shards.data()));
    EXPECT_EQ(s.first, next);
    next += s.count;
  }
  EXPECT_EQ(next, 1000u);
  EXPECT_EQ(shards.back().count, 1000u - 15 * 64);
}

TEST(Sharder, EmptyAndOversizedChunks) {
  EXPECT_TRUE(make_shards(0, 64).empty());           // empty plan
  const auto one = make_shards(10, 1000);            // chunk > total
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].count, 10u);
  EXPECT_EQ(make_shards(10, 0).size(), 10u);         // chunk clamped to 1
}

TEST(Sharder, DefaultChunkIsPureAndBounded) {
  EXPECT_EQ(default_chunk(100), default_chunk(100));
  EXPECT_EQ(default_chunk(100), 64u);                // floor
  EXPECT_EQ(default_chunk(1u << 24), 65536u);        // ceiling
  EXPECT_EQ(default_chunk(3200), 200u);              // total / 16
}

TEST(EarlyStopTracker, TriggersOnlyOnContiguousPrefix) {
  EarlyStop early(4, 5);
  EXPECT_FALSE(early.triggered());
  early.record(2, 100);  // out of order: not part of the prefix yet
  EXPECT_FALSE(early.triggered());
  early.record(0, 3);
  EXPECT_FALSE(early.triggered());  // prefix [0,1) has 3 < 5
  early.record(1, 2);               // prefix extends through shard 2
  EXPECT_TRUE(early.triggered());
  EXPECT_EQ(early.prefix_failures(), 105u);
}

TEST(EarlyStopTracker, ZeroTargetNeverTriggers) {
  EarlyStop early(2, 0);
  early.record(0, 50);
  early.record(1, 50);
  EXPECT_FALSE(early.triggered());
}

// ---- thread pool -----------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEachIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::uint64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedSubmitFromWorker) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&] {
      // Lands on the submitting worker's own deque; thieves may take it.
      pool.submit([&] { count.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 10);
}

// ---- thread pool exception propagation --------------------------------

TEST(ThreadPool, ParallelForPropagatesWorkerExceptionAfterJoin) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  // A throwing body must surface as an exception on the calling thread —
  // not std::terminate — and must not wedge the pool.
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::uint64_t i) {
                          ran.fetch_add(1);
                          if (i == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  EXPECT_GT(ran.load(), 0);
  // The pool stays usable after the failed call.
  std::atomic<int> after{0};
  pool.parallel_for(32, [&](std::uint64_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 32);
}

TEST(ThreadPool, ParallelForReportsFirstOfManyExceptions) {
  ThreadPool pool(8);
  try {
    pool.parallel_for(100, [&](std::uint64_t i) {
      throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("task "), std::string::npos);
  }
}

TEST(ThreadPool, BareSubmitErrorSurfacesAtWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("stray"); });
  EXPECT_THROW(pool.wait_idle(), std::logic_error);
  // The stored error is consumed: the next quiescent wait is clean.
  std::atomic<int> count{0};
  pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

// ---- engine determinism ----------------------------------------------

TEST(ExpEngine, McResultIdenticalAcrossThreadCounts) {
  const auto cfg = accel_config();
  RunStats s1;
  const auto r1 = run_montecarlo_parallel(cfg, {.threads = 1, .chunk = 32}, &s1);
  const auto r2 = run_montecarlo_parallel(cfg, {.threads = 2, .chunk = 32});
  const auto r8 = run_montecarlo_parallel(cfg, {.threads = 8, .chunk = 32});
  EXPECT_EQ(r1.intervals, cfg.max_intervals);
  EXPECT_GT(r1.failure_intervals, 0u);  // the comparison must see events
  expect_identical(r1, r2);
  expect_identical(r1, r8);
  EXPECT_EQ(s1.trials, cfg.max_intervals);
  EXPECT_EQ(s1.threads, 1u);
  EXPECT_GT(s1.wall_seconds, 0.0);
}

TEST(ExpEngine, BaselineResultIdenticalAcrossThreadCounts) {
  McConfig cfg;
  cfg.scheme = [] { return std::make_unique<baselines::CppcCache>(1ull << 12); };
  cfg.cache.ber = 2e-4;
  cfg.max_intervals = 96;
  cfg.seed = 5;
  const auto r1 = run_montecarlo_parallel(cfg, {.threads = 1, .chunk = 16});
  const auto r8 = run_montecarlo_parallel(cfg, {.threads = 8, .chunk = 16});
  EXPECT_EQ(r1.intervals, cfg.max_intervals);
  EXPECT_GT(r1.failure_intervals, 0u);  // CPPC fails nearly every interval
  EXPECT_EQ(r1.faults_injected, r8.faults_injected);
  EXPECT_EQ(r1.corrected, r8.corrected);
  EXPECT_EQ(r1.due_lines, r8.due_lines);
  EXPECT_EQ(r1.sdc_lines, r8.sdc_lines);
  EXPECT_EQ(r1.failure_intervals, r8.failure_intervals);
}

TEST(ExpEngine, EarlyStopIsDeterministicAcrossThreadCounts) {
  auto cfg = accel_config();
  cfg.cache.ber = 5e-4;  // nearly every interval fails
  cfg.max_intervals = 10000;
  cfg.target_failures = 12;
  const auto r1 = run_montecarlo_parallel(cfg, {.threads = 1, .chunk = 8});
  const auto r8 = run_montecarlo_parallel(cfg, {.threads = 8, .chunk = 8});
  EXPECT_GE(r1.failure_intervals, cfg.target_failures);
  EXPECT_LT(r1.intervals, cfg.max_intervals);  // stopped far before budget
  expect_identical(r1, r8);
}

TEST(ExpEngine, ZeroIntervalsYieldsEmptyResult) {
  auto cfg = accel_config();
  cfg.max_intervals = 0;  // empty shard plan
  const auto r = run_montecarlo_parallel(cfg, {.threads = 4});
  EXPECT_EQ(r.intervals, 0u);
  EXPECT_EQ(r.faults_injected, 0u);
  EXPECT_EQ(r.failure_intervals, 0u);
}

TEST(ExpEngine, SingleOversizedShard) {
  auto cfg = accel_config();
  cfg.max_intervals = 40;
  // chunk far beyond the budget: the whole run is one shard.
  const auto r1 = run_montecarlo_parallel(cfg, {.threads = 1, .chunk = 100000});
  const auto r4 = run_montecarlo_parallel(cfg, {.threads = 4, .chunk = 100000});
  EXPECT_EQ(r1.intervals, 40u);
  expect_identical(r1, r4);
}

TEST(ExpEngine, McResultMergeSumsAllCounters) {
  McResult a, b;
  a.intervals = 3;
  a.faults_injected = 10;
  a.due_lines = 1;
  a.failure_intervals = 1;
  b.intervals = 4;
  b.faults_injected = 20;
  b.sdc_lines = 2;
  b.failure_intervals = 2;
  a += b;
  EXPECT_EQ(a.intervals, 7u);
  EXPECT_EQ(a.faults_injected, 30u);
  EXPECT_EQ(a.due_lines, 1u);
  EXPECT_EQ(a.sdc_lines, 2u);
  EXPECT_EQ(a.failure_intervals, 3u);
}

// run_sharded with a synthetic workload: shard results are pure functions
// of the shard range, so the merge must be reproducible under any pool.
struct ToyResult {
  std::uint64_t sum = 0;
  std::uint64_t failure_intervals = 0;
  ToyResult& operator+=(const ToyResult& o) {
    sum += o.sum;
    failure_intervals += o.failure_intervals;
    return *this;
  }
};

TEST(ExpEngine, RunShardedMergesInShardOrderWithCutoff) {
  const auto shards = make_shards(100, 10);
  ThreadPool pool(4);
  const auto run = [](const Shard& s, const EarlyStop&) {
    ToyResult r;
    for (std::uint64_t t = s.first; t < s.first + s.count; ++t) r.sum += t;
    r.failure_intervals = 1;  // every shard "fails" once
    return std::optional<ToyResult>(r);
  };
  const auto all = run_sharded<ToyResult>(pool, shards, 0, run);
  EXPECT_EQ(all.sum, 99u * 100u / 2);
  EXPECT_EQ(all.failure_intervals, 10u);

  // target 3 => merge exactly shards 0..2 regardless of execution order.
  const auto cut = run_sharded<ToyResult>(pool, shards, 3, run);
  EXPECT_EQ(cut.failure_intervals, 3u);
  EXPECT_EQ(cut.sum, 29u * 30u / 2);
}

TEST(ExpEngine, LegacyOverloadPropagatesShardExceptions) {
  const auto shards = make_shards(40, 10);
  ThreadPool pool(4);
  // Without a quarantine policy the engine must not swallow the error.
  EXPECT_THROW(run_sharded<ToyResult>(
                   pool, shards, 0,
                   [](const Shard& s, const EarlyStop&) -> std::optional<ToyResult> {
                     if (s.index == 2) throw std::runtime_error("shard blew up");
                     return ToyResult{};
                   }),
               std::runtime_error);
}

TEST(ExpEngine, QuarantineExcludesPersistentlyThrowingShard) {
  const auto shards = make_shards(100, 10);
  ThreadPool pool(4);
  ShardRunReport report;
  RunShardedOptions<ToyResult> opt;
  opt.quarantine = true;
  opt.max_attempts = 3;
  opt.report = &report;
  std::atomic<int> attempts_on_bad{0};
  const auto merged = run_sharded<ToyResult>(
      pool, shards, opt,
      [&](const Shard& s, const EarlyStop&) -> std::optional<ToyResult> {
        if (s.index == 4) {
          attempts_on_bad.fetch_add(1);
          throw std::runtime_error("deterministic failure");
        }
        ToyResult r;
        r.sum = s.count;
        return r;
      });
  EXPECT_EQ(attempts_on_bad.load(), 3);  // retried to max_attempts
  EXPECT_EQ(merged.sum, 90u);            // 9 healthy shards of 10 trials
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(report.shards_total, 10u);
  EXPECT_EQ(report.shards_quarantined, 1u);
  EXPECT_EQ(report.trials_quarantined, 10u);
  EXPECT_EQ(report.shards_retried, 2u);  // attempts 2 and 3 were retries
  ASSERT_EQ(report.errors.size(), 3u);
  for (const auto& e : report.errors) {
    EXPECT_EQ(e.shard_index, 4u);
    EXPECT_EQ(e.kind, ShardErrorKind::kTrialException);
    EXPECT_NE(e.detail.find("deterministic failure"), std::string::npos);
  }
  EXPECT_FALSE(report.interrupted);
}

TEST(ExpEngine, TransientThrowRecoversViaRetryWithoutDegrading) {
  const auto shards = make_shards(60, 10);
  ThreadPool pool(4);
  ShardRunReport report;
  RunShardedOptions<ToyResult> opt;
  opt.quarantine = true;
  opt.max_attempts = 3;
  opt.report = &report;
  std::atomic<int> failures_left{2};  // shard 1 fails twice, then succeeds
  const auto merged = run_sharded<ToyResult>(
      pool, shards, opt,
      [&](const Shard& s, const EarlyStop&) -> std::optional<ToyResult> {
        if (s.index == 1 && failures_left.fetch_sub(1) > 0) {
          throw std::runtime_error("transient");
        }
        ToyResult r;
        r.sum = s.count;
        return r;
      });
  EXPECT_EQ(merged.sum, 60u);  // nothing lost
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(report.shards_retried, 2u);
  EXPECT_EQ(report.shards_quarantined, 0u);
  EXPECT_EQ(report.errors.size(), 2u);
}

TEST(ExpEngine, QuarantineReportMetricsSurface) {
  ShardRunReport report;
  report.shards_total = 8;
  report.shards_resumed = 3;
  report.shards_retried = 2;
  report.shards_quarantined = 1;
  report.trials_quarantined = 64;
  const auto reg = report.to_metrics();
  const std::string json = metrics_to_json(reg).str();
  EXPECT_NE(json.find("\"exp.shards_resumed\":3"), std::string::npos);
  EXPECT_NE(json.find("\"exp.shards_retried\":2"), std::string::npos);
  EXPECT_NE(json.find("\"exp.trials_quarantined\":64"), std::string::npos);
}

// ---- result sink error paths -----------------------------------------

class ResultSinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sudoku_sink_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(ResultSinkTest, EmptyResultSetStillWritesValidArtifact) {
  const ResultSink sink(dir_);
  const JsonObject empty;
  const RunStats stats;  // zero trials, zero wall time
  const auto path = sink.write("empty", empty, empty, stats);
  ASSERT_TRUE(std::filesystem::exists(path));
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"experiment\": \"empty\""), std::string::npos);
  EXPECT_NE(text.find("\"config\": {}"), std::string::npos);
  EXPECT_NE(text.find("\"trials\":0"), std::string::npos);
  // No metrics pointer given: the artifact must not claim a metrics section.
  EXPECT_EQ(text.find("\"metrics\""), std::string::npos);
}

TEST_F(ResultSinkTest, EmptyMetricsRegistryEmbedsEmptyObject) {
  const ResultSink sink(dir_);
  const JsonObject empty;
  const obs::MetricsRegistry metrics;
  const auto root = ResultSink::make_root("e", empty, empty, RunStats{}, &metrics);
  EXPECT_NE(root.str().find("\"metrics\":{}"), std::string::npos);
}

TEST_F(ResultSinkTest, ThrowsWhenOutputDirectoryCannotBeCreated) {
  // A regular file where a path component should be a directory makes
  // create_directories fail on every platform, for every uid (a chmod-based
  // unwritable directory is invisible to root, which CI runs as).
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ / "blocker") << "not a directory";
  const ResultSink sink(dir_ / "blocker" / "sub");
  const JsonObject empty;
  EXPECT_THROW(sink.write("x", empty, empty, RunStats{}), std::runtime_error);
}

TEST_F(ResultSinkTest, ThrowsWhenArtifactPathIsUnwritable) {
  // <out>/<name>.json already exists as a directory: the stream cannot open.
  std::filesystem::create_directories(dir_ / "clash.json");
  const ResultSink sink(dir_);
  const JsonObject empty;
  EXPECT_THROW(sink.write("clash", empty, empty, RunStats{}), std::runtime_error);
}

// ---- JSON escaping of metric names ------------------------------------

TEST(JsonEscape, ControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain.name"), "plain.name");
  EXPECT_EQ(json_escape("q\"b\\s"), "q\\\"b\\\\s");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
}

TEST(JsonEscape, NonAsciiUtf8PassesThroughVerbatim) {
  // JSON strings are UTF-8; multi-byte sequences need no escaping and must
  // not be mangled byte-by-byte.
  EXPECT_EQ(json_escape("grüße.μs"), "grüße.μs");
  EXPECT_EQ(json_escape("度量.计数"), "度量.计数");
}

TEST(MetricsIoEscaping, NonAsciiAndHostileMetricNames) {
  obs::MetricsRegistry reg;
  reg.counter("sudoku.läsfel")->inc(3);
  reg.counter("weird\"name\n")->inc(1);
  const std::string json = metrics_to_json(reg).str();
  EXPECT_NE(json.find("\"sudoku.läsfel\":3"), std::string::npos);
  EXPECT_NE(json.find("\"weird\\\"name\\n\":1"), std::string::npos);
}

}  // namespace
}  // namespace sudoku::exp
