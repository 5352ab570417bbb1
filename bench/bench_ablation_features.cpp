// Feature ablation across the SuDoku ladder: X (RAID-4 only), Y (+SDR),
// Z (+skewed hashing), and the paper's footnote-4 variant (skewed hashing
// WITHOUT SDR). Analytical FITs at the operating point plus a functional
// Monte-Carlo bake-off at accelerated BER.
//
// The bake-off runs on the src/exp engine: trials shard across
// parallel_for workers with per-trial seed streams (bit-identical for any
// --threads value), and with --checkpoint=DIR each level's finished shards
// persist under their own scope so an interrupted sweep resumes mid-ladder.
#include <cstdio>
#include <optional>

#include "bench_util.h"
#include "exp/checkpoint.h"
#include "exp/mc_experiments.h"
#include "exp/metrics_io.h"
#include "reliability/analytical.h"
#include "reliability/montecarlo.h"

using namespace sudoku;
using namespace sudoku::reliability;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  exp::install_signal_handlers();
  const std::uint64_t intervals = 400 * args.scale;

  bench::print_header("Ablation: which mechanism buys how much reliability?");
  CacheParams c;
  const double fit_x = sudoku_x_due(c).fit();
  const double fit_y = sudoku_y_due(c).fit();
  const double fit_z_no_sdr = sudoku_z_no_sdr(c).fit();
  const double fit_z_strict = sudoku_z_due(c, SdrModel::kStrict).fit();
  const double fit_z_mech = sudoku_z_due(c).fit();
  std::printf("\n  analytical FIT at the paper's operating point (BER 5.3e-6):\n");
  std::printf("  %-34s %14s\n", "SuDoku-X (ECC-1+CRC+RAID-4)", bench::sci(fit_x).c_str());
  std::printf("  %-34s %14s\n", "SuDoku-Y (+SDR, mechanistic)", bench::sci(fit_y).c_str());
  std::printf("  %-34s %14s   (paper footnote 4: ~4e6)\n", "Z-hashing WITHOUT SDR",
              bench::sci(fit_z_no_sdr).c_str());
  std::printf("  %-34s %14s\n", "SuDoku-Z (+skewed hash, strict)",
              bench::sci(fit_z_strict).c_str());
  std::printf("  %-34s %14s\n", "SuDoku-Z (mechanistic)", bench::sci(fit_z_mech).c_str());

  bench::print_header(
      "Functional Monte-Carlo bake-off (256 KB, 64-line groups, BER 2.5e-4)");
  bench::print_subnote("BER chosen so X saturates, Y fails measurably, Z survives —");
  bench::print_subnote("the orders-of-magnitude ladder in one observable regime.");

  std::optional<exp::CheckpointStore> store;
  if (args.checkpointing()) store.emplace(args.checkpoint_dir, args.resume);
  exp::ShardRunReport report;

  exp::RunStats total_stats;
  obs::MetricsRegistry total_metrics;
  exp::JsonArray rows;
  for (const auto level : {SudokuLevel::kX, SudokuLevel::kY, SudokuLevel::kZ}) {
    McConfig cfg;
    cfg.cache.num_lines = 1u << 12;
    cfg.cache.group_size = 64;
    cfg.cache.ber = 2.5e-4;
    cfg.level = level;
    cfg.max_intervals = intervals;
    cfg.seed = args.seed_or(5);

    exp::ExpOptions opts;
    opts.threads = args.threads;
    opts.checkpoint = store ? &*store : nullptr;
    opts.checkpoint_scope = std::string("ablation_features.") + to_string(level);
    opts.report = &report;
    opts.fleet = args.fleet;

    exp::RunStats stats;
    const auto r = exp::run_montecarlo_parallel(cfg, opts, &stats);
    bench::exit_if_interrupted(args);
    total_stats += stats;
    total_metrics += r.metrics;

    std::printf("  %-9s due_lines=%-6llu failure_intervals=%llu/%llu  sdr=%llu hash2=%llu\n",
                to_string(level), static_cast<unsigned long long>(r.due_lines),
                static_cast<unsigned long long>(r.failure_intervals),
                static_cast<unsigned long long>(r.intervals),
                static_cast<unsigned long long>(r.sdr_repairs),
                static_cast<unsigned long long>(r.hash2_invocations));
    exp::JsonObject row;
    row.set("level", to_string(level))
        .set("intervals", r.intervals)
        .set("faults_injected", r.faults_injected)
        .set("due_lines", r.due_lines)
        .set("sdc_lines", r.sdc_lines)
        .set("failure_intervals", r.failure_intervals)
        .set("sdr_repairs", r.sdr_repairs)
        .set("hash2_invocations", r.hash2_invocations);
    rows.push(row);
  }
  std::printf("\n  each rung of the ladder cuts failures by orders of magnitude\n");
  std::printf("  (X >> Y >> Z), reproducing the paper's §III->§V progression.\n");

  exp::JsonArray comparison;
  comparison.push(
      bench::paper_row("Z-hashing WITHOUT SDR FIT (footnote 4)", 4e6, fit_z_no_sdr));
  comparison.push(bench::paper_row("SuDoku-Z FIT (strict)", 1.05e-4, fit_z_strict));

  exp::JsonObject analytical;
  analytical.set("fit_x", fit_x)
      .set("fit_y", fit_y)
      .set("fit_z_no_sdr", fit_z_no_sdr)
      .set("fit_z_strict", fit_z_strict)
      .set("fit_z_mechanistic", fit_z_mech);

  exp::JsonObject config;
  config.set("num_lines", std::uint64_t{1u << 12})
      .set("group_size", 64)
      .set("ber", 2.5e-4)
      .set("intervals_per_level", intervals)
      .set("seed", args.seed_or(5))
      .set("scale", args.scale);
  exp::JsonObject result;
  result.set("analytical", analytical)
      .set("bakeoff", rows)
      .set("paper_comparison", comparison);

  bench::emit_artifact(args, "ablation_features", config, result, total_stats,
                       &total_metrics, &report);
  if (store || report.degraded()) {
    std::printf("  fault tolerance: %llu/%llu shards resumed, %llu retries, "
                "%llu quarantined (%llu trials)\n",
                static_cast<unsigned long long>(report.shards_resumed),
                static_cast<unsigned long long>(report.shards_total),
                static_cast<unsigned long long>(report.shards_retried),
                static_cast<unsigned long long>(report.shards_quarantined),
                static_cast<unsigned long long>(report.trials_quarantined));
  }
  return 0;
}
