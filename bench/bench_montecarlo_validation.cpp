// Cross-validation of the analytical FIT models against the functional
// Monte-Carlo harness (which runs the real controllers) in an accelerated
// BER regime where failures are observable. This is the evidence that the
// analytical numbers used at the paper's operating point describe the
// implemented algorithms. (At BER 5.3e-6, SuDoku-Y fails about once per
// hundred simulated hours and SuDoku-Z effectively never — direct MC at
// the operating point is computationally meaningless, which is why the
// paper itself uses analytical models, §VII-A.)
//
// Runs on the src/exp engine: trials shard across parallel_for workers
// with per-trial seed streams, so DUE/SDC counts are bit-identical for any
// --threads value, and an artifact with the merged results + throughput is
// written under bench/out/. With --checkpoint=DIR the run is resumable
// after SIGINT/SIGTERM (exit 75); a --resume replays finished shards and
// produces the same artifact bytes outside the "throughput" section.
#include <cstdio>
#include <optional>

#include <cmath>

#include "bench_util.h"
#include "exp/checkpoint.h"
#include "exp/mc_experiments.h"
#include "exp/metrics_io.h"
#include "exp/rare_event.h"
#include "reliability/analytical.h"
#include "reliability/montecarlo.h"

using namespace sudoku;
using namespace sudoku::reliability;

namespace {

struct Case {
  SudokuLevel level;
  double ber;
  std::uint64_t intervals;
};

exp::JsonObject validate(const Case& c, const bench::BenchArgs& args,
                         const exp::ExpOptions& opts, exp::RunStats& total_stats,
                         obs::MetricsRegistry& total_metrics) {
  McConfig cfg;
  cfg.cache.num_lines = 1u << 12;
  cfg.cache.group_size = 64;
  cfg.cache.ber = c.ber;
  cfg.level = c.level;
  cfg.max_intervals = c.intervals;
  cfg.seed = args.seed_or(99);

  exp::RunStats stats;
  const auto mc = exp::run_montecarlo_parallel(cfg, opts, &stats);
  bench::exit_if_interrupted(args);
  total_stats += stats;
  total_metrics += mc.metrics;

  FitResult an{};
  switch (c.level) {
    case SudokuLevel::kX: an = sudoku_x_due(cfg.cache); break;
    case SudokuLevel::kY: an = sudoku_y_due(cfg.cache); break;
    case SudokuLevel::kZ: an = sudoku_z_due(cfg.cache); break;
  }
  std::printf(
      "  %-9s ber=%-8s MC p/interval=%-10s analytical=%-10s events=%llu  "
      "sdc=%llu  (%s trials/s)\n",
      to_string(c.level), bench::sci(c.ber).c_str(),
      bench::sci(mc.p_failure_per_interval()).c_str(),
      bench::sci(an.p_interval()).c_str(),
      static_cast<unsigned long long>(mc.failure_intervals),
      static_cast<unsigned long long>(mc.sdc_lines),
      bench::sci(stats.trials_per_second()).c_str());

  // Wall-clock rates stay on the console only: the artifact's result rows
  // must be byte-identical across reruns and checkpoint resumes.
  exp::JsonObject row;
  row.set("level", to_string(c.level))
      .set("ber", c.ber)
      .set("intervals", mc.intervals)
      .set("faults_injected", mc.faults_injected)
      .set("due_lines", mc.due_lines)
      .set("sdc_lines", mc.sdc_lines)
      .set("failure_intervals", mc.failure_intervals)
      .set("mc_p_interval", mc.p_failure_per_interval())
      .set("analytical_p_interval", an.p_interval());
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  exp::install_signal_handlers();
  const Case cases[] = {
      {SudokuLevel::kX, 1e-4, 800 * args.scale},
      {SudokuLevel::kX, 2e-4, 400 * args.scale},
      {SudokuLevel::kY, 1.5e-4, 2500 * args.scale},
      {SudokuLevel::kY, 2.5e-4, 500 * args.scale},
      {SudokuLevel::kZ, 3.5e-4, 300 * args.scale},
  };

  bench::print_header("Monte-Carlo vs analytical (256 KB cache, 64-line groups)");
  std::optional<exp::CheckpointStore> store;
  if (args.checkpointing()) store.emplace(args.checkpoint_dir, args.resume);
  exp::ShardRunReport report;

  exp::ExpOptions opts;
  opts.threads = args.threads;
  opts.checkpoint = store ? &*store : nullptr;
  opts.checkpoint_scope = "mc_validation";
  opts.report = &report;
  opts.fleet = args.fleet;

  exp::RunStats total_stats;
  obs::MetricsRegistry total_metrics;
  exp::JsonArray rows;

  std::printf("\n  SuDoku-X (failures ~ groups with two 2-fault lines):\n");
  rows.push(validate(cases[0], args, opts, total_stats, total_metrics));
  rows.push(validate(cases[1], args, opts, total_stats, total_metrics));

  std::printf("\n  SuDoku-Y (failures need 3+3-fault pairs / full overlaps):\n");
  rows.push(validate(cases[2], args, opts, total_stats, total_metrics));
  rows.push(validate(cases[3], args, opts, total_stats, total_metrics));

  std::printf("\n  SuDoku-Z (failures need hard 4-cycles; at the Y-failure BER the\n");
  std::printf("  MC should show far fewer events than Y):\n");
  rows.push(validate(cases[4], args, opts, total_stats, total_metrics));

  std::printf("\n  The analytical models capture the leading-order failure modes;\n");
  std::printf("  MC includes every higher-order interaction, so modest (<2x)\n");
  std::printf("  deviations are expected. SDC must be 0 in all runs.\n");

  // ---- rare-event estimator vs unweighted MC ----------------------------
  // Same system both ways (SuDoku-X, one 64-line group, BER 1e-4, where
  // unweighted events are still observable), same trial budget: the
  // count-stratified estimate must agree with the unweighted rate within
  // joint 95% confidence, and its variance must be far smaller.
  std::printf("\n  Rare-event estimator vs unweighted MC (SuDoku-X group, BER 1e-4):\n");
  McConfig gcfg;
  gcfg.cache.num_lines = 64;
  gcfg.cache.group_size = 64;
  gcfg.cache.ber = 1e-4;
  gcfg.level = SudokuLevel::kX;
  gcfg.max_intervals = 20000 * args.scale;
  gcfg.seed = args.seed_or(99);
  exp::ExpOptions mc_opts = opts;
  mc_opts.checkpoint_scope = "mc_validation.rare_unweighted";
  exp::RunStats mc_stats;
  const auto unweighted = exp::run_montecarlo_parallel(gcfg, mc_opts, &mc_stats);
  bench::exit_if_interrupted(args);
  total_stats += mc_stats;
  total_metrics += unweighted.metrics;

  exp::RareEventConfig recfg;
  recfg.base = gcfg;
  recfg.trials = 20000 * args.scale;
  recfg.min_count = 4;  // X needs two 2-fault lines — k < 4 cannot fail
  exp::ExpOptions is_opts = opts;
  is_opts.checkpoint_scope = "mc_validation.rare_is";
  exp::RunStats is_stats;
  const auto est = exp::run_rare_event(recfg, is_opts, &is_stats);
  bench::exit_if_interrupted(args);
  total_stats += is_stats;

  const double p_mc = unweighted.p_failure_per_interval();
  const double var_mc =
      p_mc * (1.0 - p_mc) / static_cast<double>(unweighted.intervals);
  const double joint_ci95 = 1.96 * std::sqrt(est.var_unit + var_mc);
  const bool agrees = std::abs(est.p_unit - p_mc) <= joint_ci95;
  std::printf("    unweighted  p=%-10s (%llu events / %llu trials)\n",
              bench::sci(p_mc).c_str(),
              static_cast<unsigned long long>(unweighted.failure_intervals),
              static_cast<unsigned long long>(unweighted.intervals));
  std::printf("    stratified  p=%-10s +- %s  ess=%s from %llu trials  %s\n",
              bench::sci(est.p_unit).c_str(), bench::sci(est.ci95_unit()).c_str(),
              bench::sci(est.ess).c_str(),
              static_cast<unsigned long long>(est.trials),
              agrees ? "[within joint 95% CI]" : "[OUTSIDE joint 95% CI]");

  exp::JsonObject agreement;
  agreement.set("level", "X")
      .set("ber", gcfg.cache.ber)
      .set("group_lines", std::uint64_t{64})
      .set("p_unweighted", p_mc)
      .set("unweighted_trials", unweighted.intervals)
      .set("unweighted_failures", unweighted.failure_intervals)
      .set("p_stratified", est.p_unit)
      .set("stratified_ci95", est.ci95_unit())
      .set("stratified_trials", est.trials)
      .set("ess", est.ess)
      .set("joint_ci95", joint_ci95)
      .set("within_joint_ci95", agrees);

  exp::JsonObject config;
  config.set("num_lines", std::uint64_t{1u << 12})
      .set("group_size", 64)
      .set("seed", args.seed_or(99))
      .set("scale", args.scale);
  exp::JsonObject result;
  result.set("cases", rows).set("rare_event_agreement", agreement);

  const exp::ResultSink sink(args.out_dir);
  const auto path = sink.write("montecarlo_validation", config, result, total_stats,
                               &total_metrics, &report);
  std::printf("\n  %llu trials in %.2f s (%s trials/s, %u threads) -> %s\n",
              static_cast<unsigned long long>(total_stats.trials),
              total_stats.wall_seconds,
              bench::sci(total_stats.trials_per_second()).c_str(),
              total_stats.threads, path.string().c_str());
  if (store || report.degraded()) {
    std::printf("  fault tolerance: %llu/%llu shards resumed, %llu retries, "
                "%llu quarantined (%llu trials)\n",
                static_cast<unsigned long long>(report.shards_resumed),
                static_cast<unsigned long long>(report.shards_total),
                static_cast<unsigned long long>(report.shards_retried),
                static_cast<unsigned long long>(report.shards_quarantined),
                static_cast<unsigned long long>(report.trials_quarantined));
  }
  if (args.json) {
    const auto root = exp::ResultSink::make_root("montecarlo_validation", config,
                                                 result, total_stats, &total_metrics,
                                                 &report);
    std::printf("%s\n", root.str(/*pretty=*/true).c_str());
  }
  return 0;
}
