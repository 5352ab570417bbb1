// Reproduces Figure 9: System Energy-Delay Product of SuDoku-Z normalized
// to the error-free ideal baseline (Table VII energy parameters). The
// paper reports an increase of at most ~0.4% on average, driven by the PLT
// updates on every cache write.
//
// Each benchmark (and each 8-core mix) is an independent with/ideal
// simulation pair, so the pairs fan out across parallel_for workers; results
// land in an index-addressed slot table and are reduced in roster order,
// which keeps the artifact bit-identical for any --threads value.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "energy/energy_model.h"
#include "exp/parallel_for.h"
#include "sim/timing_sim.h"

using namespace sudoku;
using namespace sudoku::sim;

namespace {

struct EdpPair {
  double ratio = 0.0;
  double plt_j = 0.0;
};

EdpPair run_pair(const std::vector<std::string>& benchmarks, std::uint64_t instr) {
  SimConfig with;
  with.instructions_per_core = instr;
  SimConfig ideal = with;
  ideal.sudoku.enabled = false;

  const auto r_with = TimingSimulator(with).run(benchmarks);
  const auto r_ideal = TimingSimulator(ideal).run(benchmarks);

  energy::EnergyParams params;
  const std::uint64_t sttram_cells = with.llc.num_lines() * 553;
  // SuDoku-Z: two PLTs of 2048 parity lines × 553 bits in SRAM (§VII-H).
  const std::uint64_t plt_cells = 2ull * 2048 * 553;
  const auto e_with = energy::compute_energy(r_with, params, sttram_cells, plt_cells);
  const auto e_ideal = energy::compute_energy(r_ideal, params, sttram_cells, 0);
  return {energy::edp(e_with, r_with.total_time_ns) /
              energy::edp(e_ideal, r_ideal.total_time_ns),
          e_with.plt_dynamic_j};
}

struct Workload {
  std::string label;
  std::string suite;
  std::vector<std::string> benchmarks;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs::Options opts;
  opts.checkpoint = false;  // every pair reruns in seconds; nothing to persist
  const auto args = bench::BenchArgs::parse(argc, argv, opts);
  const std::uint64_t instr = 400'000 * args.scale;

  bench::print_header("Figure 9: System-EDP of SuDoku-Z normalized to error-free baseline");
  bench::print_subnote("Table VII: STTRAM 0.35/0.13 nJ per write/read, 0.07 nW/cell static;");
  bench::print_subnote("SRAM 0.11/0.05 nJ, 4.02 nW/cell; codec 40 pJ/line.");

  std::vector<Workload> workloads;
  for (const auto& b : benchmark_roster()) {
    workloads.push_back({b.name, b.suite, {b.name}});
  }
  const std::vector<std::vector<std::string>> mixes = {
      {"mcf", "gcc", "lbm", "swaptions", "comm1", "mummer", "x264", "soplex"},
      {"libquantum", "omnetpp", "canneal", "hmmer", "comm2", "tigr", "vips", "astar"},
      {"bwaves", "xalancbmk", "streamcluster", "gobmk", "comm3", "fasta-dna",
       "bodytrack", "milc"},
      {"GemsFDTD", "sjeng", "dedup", "perlbench", "comm4", "sphinx3", "ferret",
       "leslie3d"},
  };
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    workloads.push_back({"MIX" + std::to_string(m + 1), "MIX", mixes[m]});
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<EdpPair> slots(workloads.size());
  exp::parallel_for(args.threads, workloads.size(), [&](std::uint64_t i) {
    slots[i] = run_pair(workloads[i].benchmarks, instr);
  });

  std::printf("\n  %-16s %-8s %12s\n", "benchmark", "suite", "norm. EDP");
  exp::JsonArray rows;
  double sum = 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    std::printf("  %-16s %-8s %12.5f\n", workloads[i].label.c_str(),
                workloads[i].suite.c_str(), slots[i].ratio);
    sum += slots[i].ratio;
    worst = std::max(worst, slots[i].ratio);
    exp::JsonObject row;
    row.set("workload", workloads[i].label)
        .set("suite", workloads[i].suite)
        .set("norm_edp", slots[i].ratio)
        .set("plt_dynamic_j", slots[i].plt_j);
    rows.push(row);
  }
  const double average = sum / static_cast<double>(workloads.size());
  std::printf("\n  average normalized EDP: %.5f (paper: <= ~1.004 on average)\n",
              average);
  std::printf("  worst case:             %.5f\n", worst);

  // §VII-I: PLT write traffic. One representative heavy-write run shows
  // the SRAM PLT ports loafing far below the STTRAM banks they shadow.
  SimConfig cfg;
  cfg.instructions_per_core = instr;
  const auto r = TimingSimulator(cfg).run({"lbm", "comm1", "comm2", "dedup"});
  const double llc_util = r.llc_bank_utilization(cfg.llc.banks);
  const double plt_util = r.plt_bank_utilization(cfg.llc.banks);
  std::printf("\n  §VII-I PLT bandwidth check (write-heavy mix):\n");
  std::printf("  LLC bank utilization: %.2f%%   PLT port utilization: %.2f%%\n",
              100 * llc_util, 100 * plt_util);
  std::printf("  (PLT writes are 1ns SRAM ops vs 18ns STTRAM writes: no bottleneck,\n");
  std::printf("   as the paper argues.)\n");
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  exp::JsonArray comparison;
  comparison.push(bench::paper_row("average normalized EDP", 1.004, average));
  comparison.push(bench::paper_row("worst-case normalized EDP", "~1.01", worst));

  exp::JsonObject config;
  config.set("instructions_per_core", instr)
      .set("workloads", static_cast<std::uint64_t>(workloads.size()))
      .set("scale", args.scale);
  exp::JsonObject result;
  result.set("rows", rows)
      .set("average_norm_edp", average)
      .set("worst_norm_edp", worst)
      .set("llc_bank_utilization", llc_util)
      .set("plt_port_utilization", plt_util)
      .set("paper_comparison", comparison);

  exp::RunStats stats;
  stats.trials = static_cast<std::uint64_t>(workloads.size());
  stats.wall_seconds = wall;
  stats.threads = exp::resolve_threads(args.threads);
  stats.shards = static_cast<std::uint64_t>(workloads.size());
  bench::emit_artifact(args, "fig9_edp", config, result, stats);
  return 0;
}
