// Reproduces Table XI: CPPC / RAID-6 / 2DP vs SuDoku, all provisioned with
// CRC-31 per line (and ECC-1 where applicable). Prints the analytical FIT
// at the paper's operating point and a functional Monte-Carlo comparison
// at an accelerated BER where every scheme's failures are observable.
//
// The MC section runs on the src/exp engine: each scheme's intervals shard
// across the pool (one scheme instance per shard via a factory) with
// per-trial seed streams, so counts are thread-count-invariant; the whole
// comparison is written as a bench/out JSON artifact. With --checkpoint /
// --resume each scheme's shards checkpoint under their own scope (the
// configs are otherwise identical across schemes, so the scope is what
// keeps their checkpoint trees apart — see docs/robustness.md).
#include <cstdio>
#include <memory>
#include <optional>

#include "baselines/cppc_cache.h"
#include "baselines/raid6_cache.h"
#include "baselines/twodp_cache.h"
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
  bench::print_header("Table XI: Comparing CPPC, RAID-6, 2DP with SuDoku");

  CacheParams c;
  struct Row {
    const char* name;
    double fit;
    const char* paper;
  };
  const Row rows[] = {
      {"CPPC + CRC-31", cppc(c).fit(), "1.69e14"},
      {"RAID-6 + CRC-31", raid6(c).fit(), "571e3"},
      {"2DP ECC-1+CRC-31", twodp(c).fit(), "2.8e8"},
      {"SuDoku-Z (strict)", sudoku_z_due(c, SdrModel::kStrict).fit(), "1.05e-4"},
      {"SuDoku-Z (mechanistic)", sudoku_z_due(c).fit(), "1.05e-4"},
  };
  std::printf("\n  %-24s %14s %12s\n", "Scheme", "FIT (ours)", "paper");
  exp::JsonArray fit_rows;
  for (const auto& r : rows) {
    std::printf("  %-24s %14s %12s\n", r.name, bench::sci(r.fit).c_str(), r.paper);
    exp::JsonObject jr;
    jr.set("scheme", r.name).set("fit", r.fit).set("paper", r.paper);
    fit_rows.push(jr);
  }
  std::printf("\n  note: our RAID-6 model (P+Q erasure pair, fails at 3 multi-bit\n"
              "  lines/group) yields a higher FIT than the paper's 571e3; the paper\n"
              "  describes diagonal+row parities whose exact model it does not give.\n"
              "  The headline ordering — SuDoku >= 1e6x stronger than all three —\n"
              "  holds in both accountings.\n");

  bench::print_header(
      "Functional Monte-Carlo at accelerated BER (1 MB cache, 128-line groups, BER 1e-4)");
  // 128-line groups: SuDoku-Z's skewed hash needs num_lines >= group^2.
  const std::uint64_t lines = 1u << 14;
  const std::uint32_t group = 128;
  McConfig mcfg;
  mcfg.cache.num_lines = lines;
  mcfg.cache.group_size = group;
  mcfg.cache.ber = 1e-4;
  mcfg.level = SudokuLevel::kZ;
  mcfg.max_intervals = 300 * args.scale;
  mcfg.seed = args.seed_or(7);

  std::optional<exp::CheckpointStore> store;
  if (args.checkpointing()) store.emplace(args.checkpoint_dir, args.resume);
  exp::ShardRunReport report;

  exp::ExpOptions opts;
  opts.threads = args.threads;
  opts.checkpoint = store ? &*store : nullptr;
  opts.report = &report;
  opts.fleet = args.fleet;
  exp::RunStats total_stats;
  obs::MetricsRegistry total_metrics;
  exp::JsonArray mc_rows;

  // An empty factory runs SuDoku-Z from mcfg's geometry.
  const auto run_scheme = [&](const std::string& name, const SchemeFactory& factory) {
    // The config is identical for every scheme; the per-scheme checkpoint
    // scope is what keeps their shard payloads apart.
    McConfig cfg = mcfg;
    cfg.scheme = factory;
    exp::ExpOptions scheme_opts = opts;
    scheme_opts.checkpoint_scope = "table11." + name;
    exp::RunStats stats;
    const auto r = exp::run_montecarlo_parallel(cfg, scheme_opts, &stats);
    bench::exit_if_interrupted(args);
    total_stats += stats;
    total_metrics += r.metrics;
    std::printf("  %-24s failure intervals: %llu/%llu\n", name.c_str(),
                static_cast<unsigned long long>(r.failure_intervals),
                static_cast<unsigned long long>(r.intervals));
    exp::JsonObject jr;
    jr.set("scheme", name)
        .set("failure_intervals", r.failure_intervals)
        .set("intervals", r.intervals)
        .set("sdc_units", r.sdc_lines);
    mc_rows.push(jr);
  };

  run_scheme("CPPC+CRC-31",
             [&] { return std::make_unique<baselines::CppcCache>(lines); });
  run_scheme("RAID-6+CRC-31", [&] {
    return std::make_unique<baselines::Raid6Cache>(lines, group);
  });
  // The paper's wording ("diagonal parity and row-wise parity") matches
  // RDP; both constructions correct two erasures, so the counts agree.
  run_scheme("RDP+CRC-31", [&] {
    return std::make_unique<baselines::Raid6Cache>(lines, group,
                                                   baselines::Raid6Flavor::kRdp);
  });
  run_scheme("2DP ECC-1+CRC-31", [&] {
    return std::make_unique<baselines::TwoDpCache>(lines, group);
  });
  run_scheme("SuDoku-Z", nullptr);

  exp::JsonObject config;
  config.set("ber", mcfg.cache.ber)
      .set("max_intervals", mcfg.max_intervals)
      .set("seed", mcfg.seed)
      .set("num_lines", lines)
      .set("group_size", group);
  exp::JsonObject result;
  result.set("analytical_fit", fit_rows).set("montecarlo", mc_rows);

  const exp::ResultSink sink(args.out_dir);
  const auto path = sink.write("table11_baselines", config, result, total_stats,
                               &total_metrics, &report);
  std::printf("\n  %llu trials in %.2f s (%s trials/s, %u threads) -> %s\n",
              static_cast<unsigned long long>(total_stats.trials),
              total_stats.wall_seconds,
              bench::sci(total_stats.trials_per_second()).c_str(),
              total_stats.threads, path.string().c_str());
  if (store || report.degraded()) {
    std::printf("  fault tolerance: %llu/%llu shards resumed, %llu retries, "
                "%llu quarantined\n",
                static_cast<unsigned long long>(report.shards_resumed),
                static_cast<unsigned long long>(report.shards_total),
                static_cast<unsigned long long>(report.shards_retried),
                static_cast<unsigned long long>(report.shards_quarantined));
  }
  if (args.json) {
    const auto root = exp::ResultSink::make_root("table11_baselines", config, result,
                                                 total_stats, &total_metrics, &report);
    std::printf("%s\n", root.str(/*pretty=*/true).c_str());
  }
  return 0;
}
