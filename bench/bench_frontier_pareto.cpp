// Reliability-bandwidth-capacity Pareto frontier for large-codeword ECC
// (ROADMAP item 5, docs/frontier.md). The paper fixes two points on this
// curve — per-line ECC-t (64 B) and Hi-ECC's ECC-6 over 1 KB; the
// Ramulator2_ECC study asks what happens as codewords keep growing. This
// bench sweeps codeword size x strength (codes/ecc_design.h) and, per
// design point, reports the three frontier axes:
//
//   * FIT — analytical (n, k, t) region-code model at the paper's cache
//     geometry and BER (reliability/analytical.h), cross-checked by a
//     Monte-Carlo fault-injection campaign on the generalized region cache
//     at an accelerated BER (engine-backed: the MC section is what
//     --threads/--checkpoint/--fleet shard);
//   * bandwidth / performance — the timing model with the region-ECC data
//     path enabled (redundant codeword fetches, decode latency, per-core
//     streaming decode-hiding, RMW parity write-back) against synthetic
//     SPEC-profile workloads and the checked-in Ramulator2-style traces;
//   * capacity overhead — parity bits per data bit, closed form.
//
// Per workload, design points that no other point beats on all three axes
// are flagged pareto=true. Every section is deterministic: analytical rows
// are pure functions, MC runs on the per-trial-seed-stream engine, timing
// sims are sequential and seeded — so the artifact is byte-identical for
// any --threads and across checkpoint/resume/fleet runs
// (scripts/ci_frontier_smoke.sh enforces this against bench/golden).
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "baselines/region_cache.h"
#include "bench_util.h"
#include "codes/ecc_design.h"
#include "exp/checkpoint.h"
#include "exp/mc_experiments.h"
#include "reliability/analytical.h"
#include "sim/timing_sim.h"

using namespace sudoku;

namespace {

// Decode latency model for the timing sim: syndrome evaluation scales with
// the codeword, the Chien search with n*t — anchored so per-line ECC-1
// costs ~1 ns and Hi-ECC's 1 KB ECC-6 lands near 11 ns.
double decode_ns_for(const EccDesign& d) {
  return 1.0 + 0.1 * d.t * d.read_amplification();
}

struct DesignPoint {
  EccDesign design;
  double fit = 0.0;
  double mttf_hours = 0.0;
};

struct PerfPoint {
  double time_ns = 0.0;
  double relative_performance = 0.0;  // ideal_time / time, <= 1
  double bandwidth_amplification = 1.0;
  double buffer_hit_rate = 0.0;
  std::uint64_t region_opens = 0;
  bool pareto = false;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs::Options opts;
  opts.extra_flags = {"--quick"};
  const auto args = bench::BenchArgs::parse(argc, argv, opts);
  exp::install_signal_handlers();
  const bool quick = args.has_extra("--quick");
  const std::string bench_name =
      quick ? "frontier_pareto_quick" : "frontier_pareto";

  bench::print_header(
      "Large-codeword ECC frontier: FIT x bandwidth x capacity");

  const std::uint64_t seed = args.seed_or(23);
  const std::string traces = SUDOKU_TRACES_DIR;

  // ---- design axes ------------------------------------------------------
  std::vector<DesignPoint> points;
  reliability::CacheParams cache;  // paper geometry: 64 MB, BER 5.3e-6/20 ms
  for (const auto bytes : frontier_codeword_bytes()) {
    for (const int t : frontier_strengths()) {
      DesignPoint p;
      p.design = make_ecc_design(bytes, t);
      const auto fit = reliability::region_code_fit(
          cache, p.design.data_bits, p.design.parity_bits, p.design.t);
      p.fit = fit.fit();
      p.mttf_hours = fit.mttf_hours();
      points.push_back(std::move(p));
    }
  }

  std::printf("\n  %zu design points (%zu codeword sizes x %zu strengths), "
              "seed %llu\n",
              points.size(), frontier_codeword_bytes().size(),
              frontier_strengths().size(),
              static_cast<unsigned long long>(seed));
  std::printf("\n  %-9s %3s %3s %7s %9s %9s %11s %12s\n", "design", "t", "m",
              "parity", "cap_ovh", "read_amp", "FIT", "MTTF_h");
  for (const auto& p : points) {
    std::printf("  %-9s %3d %3d %7u %9.5f %9.2f %11s %12s\n",
                p.design.name.c_str(), p.design.t, p.design.m,
                p.design.parity_bits, p.design.capacity_overhead(),
                p.design.read_amplification(), bench::sci(p.fit).c_str(),
                bench::sci(p.mttf_hours).c_str());
  }

  // ---- Monte-Carlo cross-check (the engine-backed section) --------------
  // Accelerated BER tuned per design so each codeword averages t faults per
  // interval: failures are common enough to measure, and the expected DUE
  // count per interval (regions x P[Binom(n, ber) > t]) is linear — no
  // saturation at the cache level to hide a wrong tail.
  bench::print_header("MC cross-check: measured vs predicted DUE regions");
  const std::vector<std::string> mc_names =
      quick ? std::vector<std::string>{"512B-t2", "1KB-t6"}
            : std::vector<std::string>{"64B-t1", "512B-t2", "1KB-t6",
                                       "4KB-t4"};
  const std::uint64_t mc_lines = 256;  // multiple of every lines_per_codeword
  const std::uint64_t mc_intervals = (quick ? 40 : 160) * args.scale;

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
  exp::JsonArray mc_rows;
  std::printf("\n  %-9s %9s %9s %12s %12s %7s\n", "design", "ber",
              "intervals", "measured/iv", "predicted/iv", "ratio");
  for (const auto& name : mc_names) {
    const DesignPoint* pt = nullptr;
    for (const auto& p : points) {
      if (p.design.name == name) pt = &p;
    }
    if (pt == nullptr) continue;
    const EccDesign& d = pt->design;
    const double ber = static_cast<double>(d.t) / d.codeword_bits;
    reliability::McConfig mc;
    mc.scheme = [&] { return std::make_unique<baselines::RegionEccCache>(mc_lines, d); };
    mc.cache.ber = ber;
    mc.max_intervals = mc_intervals;
    mc.seed = seed;
    exp::ExpOptions cell_opts = base_opts;
    cell_opts.checkpoint_scope = bench_name + ".mc." + name;
    exp::RunStats stats;
    const auto r = exp::run_montecarlo_parallel(mc, cell_opts, &stats);
    bench::exit_if_interrupted(args);
    total_stats += stats;
    total_metrics += r.metrics;

    const double regions =
        static_cast<double>(mc_lines) / d.lines_per_codeword();
    const double p_region = std::exp(reliability::log_p_line_ge(
        d.codeword_bits, static_cast<std::uint32_t>(d.t) + 1, ber));
    const double predicted = regions * p_region;
    // A >t-fault codeword either fails to decode (DUE) or miscorrects
    // (SDC); the analytical P[>t] covers both outcomes.
    const double measured = static_cast<double>(r.due_lines + r.sdc_lines) /
                            static_cast<double>(r.intervals);
    const double ratio = predicted > 0.0 ? measured / predicted : 0.0;
    std::printf("  %-9s %9s %9llu %12.3f %12.3f %7.3f\n", name.c_str(),
                bench::sci(ber).c_str(),
                static_cast<unsigned long long>(r.intervals), measured,
                predicted, ratio);
    exp::JsonObject jr;
    jr.set("design", name)
        .set("ber", ber)
        .set("intervals", r.intervals)
        .set("due_units", r.due_lines)
        .set("sdc_units", r.sdc_lines)
        .set("corrected", r.corrected)
        .set("measured_due_per_interval", measured)
        .set("predicted_due_per_interval", predicted)
        .set("ratio", ratio);
    mc_rows.push(jr);
  }

  // ---- timing: region-ECC data path per (workload x design) -------------
  // Each workload first runs with the region path disabled (the error-free
  // ideal); relative performance is ideal_time / design_time. Streaming
  // workloads hold their open regions and hide repeat decodes; irregular
  // ones pay the full fetch+decode per touch — that split is the frontier's
  // bandwidth axis made visible.
  bench::print_header("Timing: decode hiding and redundant-read bandwidth");
  struct Workload {
    std::string label;  // artifact name (path-free, goldens are portable)
    std::string spec;   // make_source spec
  };
  const std::vector<Workload> workloads = {
      {"lbm", "lbm"},                                // synthetic, streaming
      {"mcf", "mcf"},                                // synthetic, irregular
      {"ai_stream", "ram:" + traces + "/ai_stream.trace"},
      {"hpc_mix", "ram:" + traces + "/hpc_mix.trace"},
  };

  sim::SimConfig sim_cfg;
  sim_cfg.num_cores = 4;
  sim_cfg.instructions_per_core = (quick ? 40'000 : 200'000) * args.scale;
  sim_cfg.warmup_accesses_per_core = 4'000;
  sim_cfg.llc.size_bytes = 4ull << 20;
  sim_cfg.seed = seed;
  sim_cfg.sudoku.enabled = false;  // isolate the region-ECC overheads

  exp::JsonArray workload_rows;
  for (const auto& w : workloads) {
    sim::SimConfig ideal = sim_cfg;
    ideal.region.enabled = false;
    const auto base = sim::TimingSimulator(ideal).run({w.spec});
    bench::exit_if_interrupted(args);

    std::vector<PerfPoint> perf(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const EccDesign& d = points[i].design;
      sim::SimConfig cfg = sim_cfg;
      cfg.region.enabled = true;
      cfg.region.region_bytes = d.data_bytes;
      cfg.region.parity_bits = d.parity_bits;
      cfg.region.decode_ns = decode_ns_for(d);
      const auto r = sim::TimingSimulator(cfg).run({w.spec});
      bench::exit_if_interrupted(args);
      PerfPoint& pp = perf[i];
      pp.time_ns = r.total_time_ns;
      pp.relative_performance =
          r.total_time_ns > 0.0 ? base.total_time_ns / r.total_time_ns : 0.0;
      pp.bandwidth_amplification = r.region_bandwidth_amplification();
      const std::uint64_t touches = r.region_opens + r.region_buffer_hits;
      pp.buffer_hit_rate =
          touches ? static_cast<double>(r.region_buffer_hits) / touches : 0.0;
      pp.region_opens = r.region_opens;
    }

    // Pareto filter on (FIT down, capacity overhead down, performance up).
    for (std::size_t i = 0; i < perf.size(); ++i) {
      bool dominated = false;
      for (std::size_t j = 0; j < perf.size() && !dominated; ++j) {
        if (j == i) continue;
        const bool no_worse =
            points[j].fit <= points[i].fit &&
            points[j].design.capacity_overhead() <=
                points[i].design.capacity_overhead() &&
            perf[j].relative_performance >= perf[i].relative_performance;
        const bool better =
            points[j].fit < points[i].fit ||
            points[j].design.capacity_overhead() <
                points[i].design.capacity_overhead() ||
            perf[j].relative_performance > perf[i].relative_performance;
        dominated = no_worse && better;
      }
      perf[i].pareto = !dominated;
    }

    std::printf("\n  workload %-10s (ideal %.0f us)\n", w.label.c_str(),
                base.total_time_ns / 1000.0);
    std::printf("  %-9s %9s %9s %9s %9s %7s\n", "design", "rel_perf",
                "bw_amp", "buf_hit", "opens", "pareto");
    exp::JsonArray point_rows;
    for (std::size_t i = 0; i < perf.size(); ++i) {
      const auto& pp = perf[i];
      std::printf("  %-9s %9.4f %9.3f %9.3f %9llu %7s\n",
                  points[i].design.name.c_str(), pp.relative_performance,
                  pp.bandwidth_amplification, pp.buffer_hit_rate,
                  static_cast<unsigned long long>(pp.region_opens),
                  pp.pareto ? "*" : "");
      exp::JsonObject jp;
      jp.set("design", points[i].design.name)
          .set("fit", points[i].fit)
          .set("capacity_overhead", points[i].design.capacity_overhead())
          .set("time_ns", pp.time_ns)
          .set("relative_performance", pp.relative_performance)
          .set("bandwidth_amplification", pp.bandwidth_amplification)
          .set("buffer_hit_rate", pp.buffer_hit_rate)
          .set("region_opens", pp.region_opens)
          .set("pareto", pp.pareto);
      point_rows.push(jp);
    }
    exp::JsonObject jw;
    jw.set("workload", w.label)
        .set("ideal_time_ns", base.total_time_ns)
        .set("points", point_rows);
    workload_rows.push(jw);
  }

  // ---- artifact ---------------------------------------------------------
  exp::JsonObject config;
  exp::JsonArray sizes_json, ts_json, mc_json;
  for (const auto b : frontier_codeword_bytes()) {
    sizes_json.push(static_cast<std::uint64_t>(b));
  }
  for (const int t : frontier_strengths()) {
    ts_json.push(static_cast<std::uint64_t>(t));
  }
  for (const auto& n : mc_names) mc_json.push(n);
  config.set("codeword_bytes", sizes_json)
      .set("strengths", ts_json)
      .set("cache_num_lines", cache.num_lines)
      .set("cache_ber", cache.ber)
      .set("mc_designs", mc_json)
      .set("mc_lines", mc_lines)
      .set("mc_intervals", mc_intervals)
      .set("sim_instructions_per_core", sim_cfg.instructions_per_core)
      .set("sim_cores", sim_cfg.num_cores)
      .set("seed", seed)
      .set("quick", quick);

  exp::JsonArray design_rows;
  for (const auto& p : points) {
    exp::JsonObject jd;
    jd.set("name", p.design.name)
        .set("data_bytes", p.design.data_bytes)
        .set("t", p.design.t)
        .set("m", p.design.m)
        .set("parity_bits", p.design.parity_bits)
        .set("codeword_bits", p.design.codeword_bits)
        .set("capacity_overhead", p.design.capacity_overhead())
        .set("read_amplification", p.design.read_amplification())
        .set("write_amplification", p.design.write_amplification())
        .set("fit", p.fit)
        .set("mttf_hours", p.mttf_hours);
    design_rows.push(jd);
  }

  exp::JsonObject result;
  result.set("designs", design_rows)
      .set("mc_validation", mc_rows)
      .set("workloads", workload_rows);

  bench::emit_artifact(args, bench_name, config, result, total_stats,
                       &total_metrics, &report);
  std::printf("  %llu MC trials in %.2f s (%u threads)\n",
              static_cast<unsigned long long>(total_stats.trials),
              total_stats.wall_seconds, total_stats.threads);
  return 0;
}
