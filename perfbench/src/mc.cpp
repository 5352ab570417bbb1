// Monte-Carlo workloads: fixed-size campaigns through
// exp::run_montecarlo_parallel, repeated until the time budget is spent.
// Every campaign of a seed must reproduce the first one's counts exactly,
// and for the default seed those counts are pinned.
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exp/mc_experiments.h"
#include "faults/scenario.h"
#include "reliability/analytical.h"
#include "reliability/montecarlo.h"
#include "sudoku/controller.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sudoku::reliability::McConfig;
using sudoku::reliability::McResult;

// The counts a campaign must reproduce.
struct Counts {
  std::uint64_t intervals = 0, faults = 0, failure_intervals = 0, due_lines = 0,
                sdc_lines = 0, ecc1 = 0, raid4 = 0, sdr = 0, hash2 = 0;
  bool operator==(const Counts&) const = default;
};

struct McSpec {
  const char* name;
  bool mixed;            // builtin "mixed" FaultScenario instead of i.i.d.
  std::uint64_t trials;  // per campaign
  // One campaign's counts at the default seed; intervals == 0: not pinned.
  Counts pinned;
};

constexpr std::uint64_t kLines = 4096;
constexpr std::uint32_t kGroup = 64;
constexpr double kBer = 3e-4;
constexpr unsigned kThreads = 3;
// Shard size of the engine's default plan for a 1024-trial campaign. Each
// campaign is 16 such shards per thread, so work stealing rather than a
// ragged last wave of shards sets its length.
constexpr std::uint64_t kShardTrials = 64;
constexpr std::uint64_t kDefaultSeed = 1;

const McSpec kMcSpecs[] = {
    {"mc_z_iid", false, 16 * kThreads * kShardTrials, {3072, 2088424, 0, 0, 0, 1769437, 113341, 41679, 9235}},
    {"mc_z_mixed", true, 32 * kThreads * kShardTrials, {6144, 719865, 0, 0, 0, 731922, 13917, 164, 173}},
};

const McSpec& find_spec(const std::string& name) {
  for (const McSpec& s : kMcSpecs) {
    if (name == s.name) return s;
  }
  std::abort();  // main() validates workload names first
}

Counts counts_of(const McResult& r) {
  return {r.intervals,     r.faults_injected, r.failure_intervals,
          r.due_lines,     r.sdc_lines,       r.ecc1_corrections,
          r.raid4_repairs, r.sdr_repairs,     r.hash2_invocations};
}

std::string describe(const Counts& c) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "intervals=%llu faults=%llu failure_intervals=%llu due_lines=%llu "
                "sdc_lines=%llu ecc1=%llu raid4=%llu sdr=%llu hash2=%llu",
                static_cast<unsigned long long>(c.intervals),
                static_cast<unsigned long long>(c.faults),
                static_cast<unsigned long long>(c.failure_intervals),
                static_cast<unsigned long long>(c.due_lines),
                static_cast<unsigned long long>(c.sdc_lines),
                static_cast<unsigned long long>(c.ecc1),
                static_cast<unsigned long long>(c.raid4),
                static_cast<unsigned long long>(c.sdr),
                static_cast<unsigned long long>(c.hash2));
  return buf;
}

struct Campaign {
  double wall_s = 0.0;
  std::uint64_t trials = 0;
  // Per shard, from consecutive after_shard callbacks on one worker: the
  // shard's wall time, and that time per trial. Each worker's first shard
  // is skipped (its gap also holds pool start-up).
  std::vector<double> shard_ms;
  std::vector<double> trial_us;
  Counts counts;
  bool degraded = false;

  double trials_per_s() const { return static_cast<double>(trials) / wall_s; }
};

class McBench {
 public:
  McBench(const McSpec& spec, std::uint64_t seed) : spec_(spec), seed_(seed) {}

  // What every shard constructs and formats before its first trial (as
  // run_montecarlo does), plus the scenario for the mixed workload.
  struct Setup {
    std::unique_ptr<sudoku::faults::FaultScenario> scenario;
    std::unique_ptr<sudoku::SudokuController> ctrl;
    std::unique_ptr<sudoku::SttramArray> golden;
  };
  std::unique_ptr<Setup> build() const {
    auto s = std::make_unique<Setup>();
    if (spec_.mixed) {
      s->scenario = std::make_unique<sudoku::faults::FaultScenario>(
          sudoku::faults::ScenarioSpec::builtin("mixed"),
          sudoku::faults::Geometry{kLines, sudoku::reliability::kSudokuLineBits}, seed_);
    }
    sudoku::SudokuConfig sc;
    sc.geo.num_lines = kLines;
    sc.geo.group_size = kGroup;
    sc.level = sudoku::SudokuLevel::kZ;
    s->ctrl = std::make_unique<sudoku::SudokuController>(sc);
    s->golden = std::make_unique<sudoku::SttramArray>(kLines, s->ctrl->codec().total_bits());
    sudoku::Rng rng(sudoku::Rng::derive_stream_seed(seed_, sudoku::kFormatStream));
    s->ctrl->format([&](std::uint64_t line) {
      sudoku::BitVec data(sudoku::LineCodec::kDataBits);
      for (auto& w : data.words()) w = rng.next_u64();
      s->golden->write_line(line, s->ctrl->codec().encode(data));
      return data;
    });
    return s;
  }

  // Build once and keep the scenario for the campaigns; returns seconds.
  double set_up() {
    const auto t0 = Clock::now();
    auto s = build();
    const double dt = seconds_between(t0, Clock::now());
    scenario_ = std::move(s->scenario);
    return dt;
  }

  // With `timed_shards`, an after_shard hook records each shard's span —
  // the outside-in trace the latency metrics come from; without it the
  // engine runs unobserved.
  Campaign run(unsigned threads, bool timed_shards) {
    McConfig cfg;
    cfg.cache.num_lines = kLines;
    cfg.cache.group_size = kGroup;
    cfg.cache.ber = kBer;
    cfg.level = sudoku::SudokuLevel::kZ;
    cfg.seed = seed_;
    cfg.max_intervals = spec_.trials;
    cfg.scenario = scenario_.get();

    Campaign c;
    std::mutex mu;
    std::map<std::thread::id, Clock::time_point> last;  // guarded by mu
    sudoku::exp::ShardRunReport report;
    sudoku::exp::ExpOptions opt;
    opt.threads = threads;
    opt.chunk = kShardTrials;
    opt.report = &report;
    if (timed_shards) opt.after_shard = [&](const sudoku::exp::Shard& s) {
      const auto now = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      const auto [it, first] = last.try_emplace(std::this_thread::get_id(), now);
      if (first) return;
      const double gap_s = seconds_between(it->second, now);
      c.shard_ms.push_back(gap_s * 1e3);
      c.trial_us.push_back(gap_s * 1e6 / static_cast<double>(s.count));
      it->second = now;
    };
    sudoku::exp::RunStats stats;
    const auto t0 = Clock::now();
    const McResult r = sudoku::exp::run_montecarlo_parallel(cfg, opt, &stats);
    c.wall_s = seconds_between(t0, Clock::now());
    c.trials = stats.trials;
    c.counts = counts_of(r);
    c.degraded = report.degraded() || stats.trials != spec_.trials ||
                 r.intervals != spec_.trials;
    return c;
  }

  // Account a campaign: its trials are attempted, and all of them fail
  // when a shard was quarantined or the counts differ from the reference.
  void check(const Campaign& c, Result& out) {
    bool bad = c.degraded;
    if (c.degraded) out.fail(std::string(spec_.name) + ": campaign degraded or cut short");
    if (!reference_) {
      reference_ = c.counts;
      if (seed_ == kDefaultSeed && spec_.pinned.intervals != 0 &&
          !(c.counts == spec_.pinned)) {
        bad = true;
        out.fail(std::string(spec_.name) + ": default-seed counts " + describe(c.counts) +
                 " differ from pinned " + describe(spec_.pinned));
      }
    } else if (!(c.counts == *reference_)) {
      bad = true;
      out.fail(std::string(spec_.name) + ": campaign counts " + describe(c.counts) +
               " differ from the first campaign's " + describe(*reference_));
    }
    out.tally.add(spec_.trials, bad ? spec_.trials : 0);
  }

  const Counts& reference() const { return *reference_; }
  const McSpec& spec() const { return spec_; }

 private:
  const McSpec& spec_;
  std::uint64_t seed_;
  std::unique_ptr<sudoku::faults::FaultScenario> scenario_;
  std::optional<Counts> reference_;
};

}  // namespace

bool is_mc_workload(const std::string& name) {
  for (const McSpec& s : kMcSpecs) {
    if (name == s.name) return true;
  }
  return false;
}

void run_mc(const std::string& workload, std::uint64_t seed, double seconds,
            Result& out) {
  McBench bench(find_spec(workload), seed);
  double setup_spent = bench.set_up();
  std::vector<double> setups{setup_spent};
  bench.check(bench.run(kThreads, true), out);  // warm-up, checked, not timed

  std::vector<Campaign> runs;
  const auto start = Clock::now();
  while (runs.size() < 3 || seconds_between(start, Clock::now()) < seconds) {
    runs.push_back(bench.run(kThreads, true));
    bench.check(runs.back(), out);
    sample_setup(setups, setup_spent, kSetupShare * seconds_between(start, Clock::now()),
                 [&bench] { return bench.build(); });
  }
  std::vector<double> tps, trial_us;
  for (const Campaign& c : runs) {
    tps.push_back(c.trials_per_s());
    trial_us.insert(trial_us.end(), c.trial_us.begin(), c.trial_us.end());
  }
  // A campaign yields one sample per shard, so the tail the run can
  // resolve with at least ten samples beyond it is p90.
  const double tail = quantile(trial_us, 0.90);
  out.metric("throughput_per_s", median(tps), "1/s");
  out.metric("p50_us", quantile(trial_us, 0.50), "us");
  out.metric("tail_us", tail, "us");
  out.metric("setup_s", median(setups), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MiB");

  note("%s: %zu campaigns x %llu trials at %u threads, %zu set-ups; per-campaign counts %s",
       workload.c_str(), runs.size(), static_cast<unsigned long long>(bench.spec().trials),
       kThreads, setups.size(),
       describe(bench.reference()).c_str());
  note("trials_per_s=%.1f 1/s  per-trial latency from %zu shard samples (%llu beyond p90); "
       "error_rate=%.3g (%llu/%llu)",
       median(tps), trial_us.size(),
       static_cast<unsigned long long>(count_above(trial_us, tail)), out.tally.error_rate(),
       static_cast<unsigned long long>(out.tally.failed),
       static_cast<unsigned long long>(out.tally.attempted));
}

double mc_trace_ratio(const std::string& workload, std::uint64_t seed, double seconds,
                      Result& out) {
  McBench bench(find_spec(workload), seed);
  bench.set_up();
  bench.check(bench.run(kThreads, false), out);
  std::vector<double> plain, traced;
  const auto start = Clock::now();
  while (plain.size() < 3 || seconds_between(start, Clock::now()) < seconds) {
    for (bool t : {false, true}) {
      const Campaign c = bench.run(kThreads, t);
      bench.check(c, out);
      (t ? traced : plain).push_back(c.trials_per_s());
    }
  }
  return median(traced) / median(plain);
}

void exp_layer(std::uint64_t seed, double seconds, Result& out) {
  // mc_z_iid's configuration on a quarter-size campaign, so a 1-thread
  // campaign fits the suite's time share.
  static const McSpec kSpec{"mc_z_iid/4", false, 4 * kThreads * kShardTrials, {}};
  McBench bench(kSpec, seed);
  bench.set_up();
  bench.check(bench.run(kThreads, false), out);
  // Alternate 1-thread and 3-thread campaigns so drift cancels in the ratio.
  // (Counts are per campaign and do not depend on the thread count.)
  std::vector<double> tp1, tp3, shard_ms;
  const auto start = Clock::now();
  while (tp1.size() < 2 || seconds_between(start, Clock::now()) < seconds) {
    const Campaign one = bench.run(1, true);
    const Campaign many = bench.run(kThreads, true);
    bench.check(one, out);
    bench.check(many, out);
    tp1.push_back(one.trials_per_s());
    tp3.push_back(many.trials_per_s());
    shard_ms.insert(shard_ms.end(), one.shard_ms.begin(), one.shard_ms.end());
  }
  out.metric("exp.shard_ms", median(shard_ms), "ms");
  out.metric("exp.scaling_eff", median(tp3) / median(tp1) / kThreads, "ratio");

  const Counts& c = bench.reference();
  const double n = static_cast<double>(c.intervals);
  out.metric("sudoku.repairs_per_trial.ecc1", static_cast<double>(c.ecc1) / n, "count");
  out.metric("sudoku.repairs_per_trial.raid4", static_cast<double>(c.raid4) / n, "count");
  out.metric("sudoku.repairs_per_trial.sdr", static_cast<double>(c.sdr) / n, "count");
  out.metric("sudoku.repairs_per_trial.hash2", static_cast<double>(c.hash2) / n, "count");
  note("%s campaign counts: %s", kSpec.name, describe(c).c_str());
}

}  // namespace perfbench
