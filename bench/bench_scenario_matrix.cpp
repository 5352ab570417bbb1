// Scenario x scheme robustness matrix (ROADMAP item 4, docs/faults.md):
// every builtin fault scenario — i.i.d., stuck-at, intermittent,
// spatially-clustered, thermal ramp, Weibull wear-out, and the mixed
// composite — driven against SuDoku-X/Y/Z, Hi-ECC (t=6) and ECC-4 on the
// same array footprint. The paper's §VII evaluation covers only the i.i.d.
// column; the matrix shows how the schemes separate once faults stop being
// independent (§VI's permanent-fault claim, field-study fault mixes).
//
// Every cell runs on the src/exp engine with per-trial seed streams and the
// scenario's own per-(source, interval) streams, so the artifact is
// byte-identical for any --threads and across checkpoint/resume/fleet runs.
// Each cell checkpoints under its own scope.
//
// A final deterministic section exercises the service's graceful
// degradation: a permanent-fault scenario against a two-bank MemoryService
// with repeat-offender retirement enabled, reporting the converged
// retired-line set and the degraded-capacity figures.
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/ecck_cache.h"
#include "baselines/hiecc_cache.h"
#include "bench_util.h"
#include "exp/checkpoint.h"
#include "exp/mc_experiments.h"
#include "exp/metrics_io.h"
#include "faults/scenario.h"
#include "reliability/montecarlo.h"
#include "service/service.h"

using namespace sudoku;

namespace {

struct Cell {
  std::string scenario;
  std::string scheme;
  std::uint64_t intervals = 0;
  std::uint64_t failure_intervals = 0;
  std::uint64_t due = 0;
  std::uint64_t sdc = 0;
  std::uint64_t corrected = 0;
  std::uint64_t faults = 0;
};

BitVec service_payload(std::uint64_t addr) {
  BitVec data(512);
  std::uint64_t state = addr * 0x9e3779b97f4a7c15ull + 1;
  for (std::uint32_t i = 0; i < 512; i += 64) {
    data.set_bits(i, 64, splitmix64_next(state));
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs::Options opts;
  opts.extra_flags = {"--quick"};
  const auto args = bench::BenchArgs::parse(argc, argv, opts);
  exp::install_signal_handlers();
  const bool quick = args.has_extra("--quick");
  const std::string bench_name =
      quick ? "scenario_matrix_quick" : "scenario_matrix";

  bench::print_header("Mixed-fault scenario matrix: scenario x scheme");

  const std::uint64_t lines = 4096;   // kZ skewed hash needs lines >= group^2
  const std::uint32_t group = 64;
  const std::uint64_t max_intervals = (quick ? 40 : 200) * args.scale;
  const std::uint64_t seed = args.seed_or(11);

  const std::vector<std::string> scenario_names =
      quick ? std::vector<std::string>{"iid", "stuck", "clustered", "mixed"}
            : faults::ScenarioSpec::builtin_names();

  std::optional<exp::CheckpointStore> store;
  if (args.checkpointing()) store.emplace(args.checkpoint_dir, args.resume);
  exp::ShardRunReport report;
  exp::ExpOptions base_opts;
  base_opts.threads = args.threads;
  base_opts.checkpoint = store ? &*store : nullptr;
  base_opts.report = &report;
  base_opts.fleet = args.fleet;

  exp::RunStats total_stats;
  obs::MetricsRegistry total_metrics;
  std::vector<Cell> cells;
  // Scenarios must outlive the parallel runs that share them; a deque keeps
  // references stable while cells append.
  std::deque<faults::FaultScenario> live_scenarios;

  // Geometry probes: fault units differ per scheme family.
  SudokuConfig probe_cfg;
  probe_cfg.geo.num_lines = lines;
  probe_cfg.geo.group_size = group;
  const std::uint32_t sudoku_bits =
      SudokuController(probe_cfg).codec().total_bits();
  const baselines::HiEccCache hiecc_probe(lines, 6);
  const baselines::EccKCache ecck_probe(lines, 4);

  std::printf("\n  %zu scenarios x 5 schemes, %llu intervals/cell, seed %llu\n",
              scenario_names.size(),
              static_cast<unsigned long long>(max_intervals),
              static_cast<unsigned long long>(seed));
  std::printf("\n  %-12s %-10s %10s %8s %6s %10s\n", "scenario", "scheme",
              "fail_ivals", "due", "sdc", "faults");

  const auto print_cell = [](const Cell& c) {
    std::printf("  %-12s %-10s %7llu/%llu %8llu %6llu %10llu\n",
                c.scenario.c_str(), c.scheme.c_str(),
                static_cast<unsigned long long>(c.failure_intervals),
                static_cast<unsigned long long>(c.intervals),
                static_cast<unsigned long long>(c.due),
                static_cast<unsigned long long>(c.sdc),
                static_cast<unsigned long long>(c.faults));
  };

  // One cell. Its "corrected" column holds SuDoku's ECC-1 count and the
  // baselines' in-place repairs.
  const auto run_cell = [&](const std::string& scenario_name,
                            const std::string& scheme_name,
                            reliability::McConfig mc) {
    mc.max_intervals = max_intervals;
    mc.seed = seed;
    exp::ExpOptions cell_opts = base_opts;
    cell_opts.checkpoint_scope =
        bench_name + "." + scenario_name + "." + scheme_name;
    exp::RunStats stats;
    const auto r = exp::run_montecarlo_parallel(mc, cell_opts, &stats);
    bench::exit_if_interrupted(args);
    total_stats += stats;
    total_metrics += r.metrics;
    Cell cell{scenario_name,       scheme_name, r.intervals,
              r.failure_intervals, r.due_lines, r.sdc_lines,
              mc.scheme ? r.corrected : r.ecc1_corrections,
              r.faults_injected};
    print_cell(cell);
    cells.push_back(std::move(cell));
  };

  for (const auto& scenario_name : scenario_names) {
    const faults::ScenarioSpec spec =
        faults::ScenarioSpec::builtin(scenario_name);

    // SuDoku levels share one scenario instance (same geometry).
    const faults::FaultScenario& sudoku_scn = live_scenarios.emplace_back(
        spec, faults::Geometry{lines, sudoku_bits}, seed);
    for (const auto level :
         {SudokuLevel::kX, SudokuLevel::kY, SudokuLevel::kZ}) {
      reliability::McConfig mc;
      mc.cache.num_lines = lines;
      mc.cache.group_size = group;
      mc.level = level;
      mc.scenario = &sudoku_scn;
      run_cell(scenario_name, to_string(level), mc);
    }

    const auto run_baseline = [&](const std::string& scheme_name,
                                  const faults::Geometry& geo,
                                  const reliability::SchemeFactory& factory) {
      reliability::McConfig mc;
      mc.scheme = factory;
      mc.scenario = &live_scenarios.emplace_back(spec, geo, seed);
      run_cell(scenario_name, scheme_name, mc);
    };

    run_baseline(
        "Hi-ECC",
        {hiecc_probe.num_units(), hiecc_probe.bits_per_unit()},
        [&] { return std::make_unique<baselines::HiEccCache>(lines, 6); });
    run_baseline(
        "ECC-4", {ecck_probe.num_units(), ecck_probe.bits_per_unit()},
        [&] { return std::make_unique<baselines::EccKCache>(lines, 4); });
  }

  exp::JsonArray rows;
  std::map<std::pair<std::string, std::string>, const Cell*> by_key;
  for (const auto& c : cells) {
    exp::JsonObject jr;
    jr.set("scenario", c.scenario)
        .set("scheme", c.scheme)
        .set("intervals", c.intervals)
        .set("failure_intervals", c.failure_intervals)
        .set("due", c.due)
        .set("sdc", c.sdc)
        .set("corrected", c.corrected)
        .set("faults_injected", c.faults);
    rows.push(jr);
    by_key[{c.scenario, c.scheme}] = &c;
  }

  // Paper-style comparison rows: §VI claims SuDoku's scrub-and-repair
  // pipeline tolerates permanent faults as a by-product of its transient
  // machinery; the per-scenario ordering against the per-line baselines is
  // the checkable form of that claim.
  exp::JsonArray comparison;
  bench::print_header("Paper comparison (§VI / §VII)");
  for (const auto& scenario_name : scenario_names) {
    const Cell* z = by_key.count({scenario_name, "SuDoku-Z"})
                        ? by_key[{scenario_name, "SuDoku-Z"}]
                        : nullptr;
    const Cell* ecck = by_key.count({scenario_name, "ECC-4"})
                           ? by_key[{scenario_name, "ECC-4"}]
                           : nullptr;
    const Cell* hiecc = by_key.count({scenario_name, "Hi-ECC"})
                            ? by_key[{scenario_name, "Hi-ECC"}]
                            : nullptr;
    if (z == nullptr || ecck == nullptr || hiecc == nullptr) continue;
    const bool holds = z->failure_intervals <= ecck->failure_intervals &&
                       z->sdc == 0;
    exp::JsonObject jr;
    jr.set("scenario", scenario_name)
        .set("claim",
             scenario_name == "stuck"
                 ? "§VI: SuDoku tolerates permanent faults via scrub+repair"
                 : "SuDoku-Z fails no more often than per-line ECC-4")
        .set("sudoku_z_failures", z->failure_intervals)
        .set("ecc4_failures", ecck->failure_intervals)
        .set("hiecc_failures", hiecc->failure_intervals)
        .set("sudoku_z_sdc", z->sdc)
        .set("holds", holds);
    comparison.push(jr);
    std::printf("  %-12s sudoku-z %llu vs ECC-4 %llu vs Hi-ECC %llu "
                "failure intervals -> %s\n",
                scenario_name.c_str(),
                static_cast<unsigned long long>(z->failure_intervals),
                static_cast<unsigned long long>(ecck->failure_intervals),
                static_cast<unsigned long long>(hiecc->failure_intervals),
                holds ? "holds" : "VIOLATED");
  }

  // ---- graceful degradation under a permanent-fault scenario ----------
  // Deterministic and single-threaded by construction (every service call
  // below is synchronous), so these rows golden like the matrix.
  bench::print_header("Service degradation: repeat-offender retirement");
  const std::uint64_t svc_lines = 1024;
  const std::uint32_t svc_banks = 2;
  SudokuConfig svc_cfg;
  svc_cfg.geo.num_lines = svc_lines;
  svc_cfg.geo.group_size = 32;
  svc_cfg.level = SudokuLevel::kZ;
  service::ServiceConfig scfg;
  scfg.banks = svc_banks;
  scfg.repair_workers = 1;
  scfg.retire_strikes = 3;
  scfg.spare_lines_per_bank = 32;
  service::MemoryService svc(
      scfg, [&](std::uint32_t) { return service::make_sudoku_backend(svc_cfg); });
  svc.format([&](std::uint32_t bank, std::uint64_t line) {
    return service_payload(line * svc_banks + bank);
  });

  std::deque<faults::FaultScenario> svc_scenarios;
  for (std::uint32_t bank = 0; bank < svc_banks; ++bank) {
    svc_scenarios.emplace_back(faults::ScenarioSpec::builtin("stuck"),
                               faults::Geometry{svc_lines, sudoku_bits},
                               seed + 100 + bank);
  }
  const std::uint64_t drive_intervals = quick ? 20 : 60;
  std::vector<std::uint64_t> touched;
  for (std::uint64_t t = 0; t < drive_intervals; ++t) {
    for (std::uint32_t bank = 0; bank < svc_banks; ++bank) {
      const faults::ActiveStuck stuck = svc_scenarios[bank].stuck(t);
      svc.assert_stuck(bank, stuck.cells(), /*scrub_async=*/false);
      const FaultBatch batch = svc_scenarios[bank].transient(t);
      svc.inject_faults(bank, batch, /*scrub_async=*/false);
      touched.clear();
      for (const auto& [unit, bits] : batch) touched.push_back(unit);
      touched.insert(touched.end(), stuck.units().begin(), stuck.units().end());
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
      svc.scrub_units_now(bank, touched);
    }
  }
  // Convergence sweeps: the permanent population is constant, so a few
  // full scrubs retire every repeat offender and nothing else.
  for (int round = 0; round < 4; ++round) {
    for (std::uint32_t bank = 0; bank < svc_banks; ++bank) {
      svc.assert_stuck(bank, svc_scenarios[bank].stuck(0).cells(),
                       /*scrub_async=*/false);
      svc.scrub_bank_now(bank);
    }
  }
  const service::DegradationReport deg = svc.degradation_report();

  // Post-degradation audit: every line either serves its formatted payload
  // (spare-backed or repaired in place) or is an honest DUE — never SDC.
  service::ClientStats audit;
  BitVec buf;
  std::uint64_t audit_due = 0, audit_sdc = 0;
  for (std::uint64_t addr = 0; addr < svc.num_lines(); ++addr) {
    const service::ReadStatus st = svc.read(addr, audit, buf);
    if (st == service::ReadStatus::kDue) {
      ++audit_due;
    } else if (!(buf == service_payload(addr))) {
      ++audit_sdc;
    }
  }

  exp::JsonArray deg_rows;
  for (const auto& bank : deg.banks) {
    std::printf("  bank %u: %llu retired (%llu spare-backed, %llu unmapped) "
                "of %llu lines\n",
                bank.bank,
                static_cast<unsigned long long>(bank.retired_lines.size()),
                static_cast<unsigned long long>(bank.retired_mapped),
                static_cast<unsigned long long>(bank.retired_unmapped),
                static_cast<unsigned long long>(svc_lines));
    exp::JsonObject jr;
    jr.set("bank", bank.bank)
        .set("retired_mapped", bank.retired_mapped)
        .set("retired_unmapped", bank.retired_unmapped)
        .set("spare_capacity", bank.spare_capacity);
    exp::JsonArray ids;
    for (const auto line : bank.retired_lines) ids.push(line);
    jr.set("retired_lines", ids);
    deg_rows.push(jr);
  }
  obs::MetricsRegistry svc_metrics;
  svc.merge_metrics_into(svc_metrics);
  svc_metrics += audit.registry();
  exp::JsonObject degradation;
  degradation.set("banks", deg_rows)
      .set("healthy_fraction", deg.healthy_fraction())
      .set("retired_total", deg.retired_mapped + deg.retired_unmapped)
      .set("audit_due", audit_due)
      .set("audit_sdc", audit_sdc)
      .set("spare_reads",
           audit.registry().find_counter("service.read.retired")->value());
  std::printf("  healthy capacity: %.4f, audit: %llu due, %llu sdc\n",
              deg.healthy_fraction(),
              static_cast<unsigned long long>(audit_due),
              static_cast<unsigned long long>(audit_sdc));

  exp::JsonObject config;
  config.set("num_lines", lines)
      .set("group_size", group)
      .set("max_intervals", max_intervals)
      .set("seed", seed)
      .set("quick", quick);
  exp::JsonArray scn_specs;
  for (const auto& name : scenario_names) {
    scn_specs.push(faults::ScenarioSpec::builtin(name).to_json());
  }
  config.set("scenarios", scn_specs);

  exp::JsonObject result;
  result.set("rows", rows)
      .set("paper_comparison", comparison)
      .set("degradation", degradation);

  const exp::ResultSink sink(args.out_dir);
  const auto path = sink.write(bench_name, config, result, total_stats,
                               &total_metrics, &report);
  std::printf("\n  %llu trials in %.2f s (%s trials/s, %u threads) -> %s\n",
              static_cast<unsigned long long>(total_stats.trials),
              total_stats.wall_seconds,
              bench::sci(total_stats.trials_per_second()).c_str(),
              total_stats.threads, path.string().c_str());
  if (args.json) {
    const auto root = exp::ResultSink::make_root(
        bench_name, config, result, total_stats, &total_metrics, &report);
    std::printf("%s\n", root.str(/*pretty=*/true).c_str());
  }
  return 0;
}
