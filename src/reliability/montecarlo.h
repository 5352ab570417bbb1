// Monte-Carlo reliability harness (FaultSim-style, paper §VII-A). Unlike
// the analytical models, this drives the *functional* schemes: for SuDoku
// the real CRC-31/ECC-1 codecs, real PLTs, real SDR trial flips; for the
// baselines their own codecs and parities (reliability/scheme.h). Per scrub
// interval it injects faults (Binomial(total_bits, BER) i.i.d. flips, or a
// fault scenario), scrubs the touched units, and classifies the outcome
// against golden data:
//   * DUE  — the scheme declared a unit uncorrectable (data loss, detected)
//   * SDC  — the scheme believed a unit fine/corrected but it mismatches
//            golden (silent corruption)
// Every interval ends with a canonical restore: each touched or DUE unit
// that differs from golden is copied back and its parity resynchronised
// (modelling a refill from the next memory level), so every interval
// starts from golden state.
//
// At the paper's operating point SuDoku-Z events are unobservably rare;
// validation runs at accelerated BER where analytical and MC regimes
// overlap (see bench_montecarlo_validation).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "faults/scenario.h"
#include "obs/metrics.h"
#include "reliability/analytical.h"
#include "reliability/scheme.h"
#include "sudoku/controller.h"

namespace sudoku::reliability {

struct McConfig {
  // Geometry and BER. With `scheme` set only cache.ber is read: the
  // scheme's array sets the geometry.
  reliability::CacheParams cache;
  SudokuLevel level = SudokuLevel::kZ;
  // The scheme under test; empty = a SudokuController at `level` over the
  // cache geometry. Each run (each shard of a parallel run) builds its own.
  SchemeFactory scheme;
  std::uint64_t seed = 1;
  std::uint64_t max_intervals = 10000;
  // Stop early once this many DUE/SDC intervals were observed (0 = never).
  std::uint64_t target_failures = 0;

  // Rare-event hook (exp/rare_event): when >= 0, every interval injects
  // exactly this many faults at uniform distinct positions instead of a
  // Binomial(total_bits, BER) count — i.e. the conditional fault law given
  // the count. The stratified estimator runs one such conditional MC per
  // fault count and reweights with the exact Binomial pmf. -1 = off.
  std::int64_t fixed_fault_count = -1;

  // §VIII-B write-error mode: host writes per interval, each of which
  // flips every written bit with probability `wer` (write error rate).
  // SuDoku does not distinguish write errors from retention errors; with
  // wer ≈ retention BER the reliability should be similar. No bench sets
  // it; tests/test_integration.cpp does. Needs a scheme with a line data
  // path (CacheScheme::write_line_data).
  std::uint64_t host_writes_per_interval = 0;
  double wer = 0.0;

  // Mixed-fault mode (src/faults, ROADMAP item 4): when set, interval t's
  // faults come from the scenario instead of the i.i.d. injector —
  // transient flips (XOR-merged across sources) plus stuck cells that are
  // re-asserted after every repair. Each interval starts and ends in
  // canonical state (array == golden outside stuck cells, parities
  // consistent), so shard splits stay bit-reproducible. The scenario's
  // geometry must match the scheme's array; fixed_fault_count and
  // host_writes_per_interval are ignored in scenario mode. The pointed-to
  // scenario is immutable and shared by all shards of a parallel run.
  const faults::FaultScenario* scenario = nullptr;

  // ---- experiment-engine hooks (src/exp) ----
  // When set, interval t draws all of its randomness from a fresh Rng
  // seeded with Rng::derive_stream_seed(seed, first_trial + t), and the
  // golden formatting uses the reserved kFormatStream. A shard covering
  // trials [first_trial, first_trial + max_intervals) then depends only on
  // (seed, trial indices) — not on thread count or on how earlier shards
  // went — which is the engine's bit-reproducibility contract.
  bool per_trial_seed_streams = false;
  std::uint64_t first_trial = 0;
  // Checked before each interval; return true to abandon the run. The
  // engine only fires this for shards whose results its deterministic
  // merge will discard, so cancellation can never change a merged result.
  std::function<bool()> stop_hook;
};

// The result of a run, for any scheme. due_lines/sdc_lines count the
// scheme's protection unit (a 1 KB region for Hi-ECC); ecc1_corrections
// through groups_repaired are SuDoku's repair-ladder counts and stay zero
// for the baselines.
struct McResult {
  std::uint64_t intervals = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t corrected = 0;  // units repaired in place
  std::uint64_t ecc1_corrections = 0;
  std::uint64_t raid4_repairs = 0;
  std::uint64_t sdr_repairs = 0;
  std::uint64_t hash2_invocations = 0;
  std::uint64_t groups_repaired = 0;
  std::uint64_t due_lines = 0;
  std::uint64_t sdc_lines = 0;
  std::uint64_t failure_intervals = 0;  // intervals with >= 1 DUE or SDC

  // Full event mix recorded by the run: the scheme's own series (SuDoku's
  // sudoku.*) plus the loop's mc.* or baseline.* series (see
  // docs/observability.md). Only deterministic event counts are recorded
  // here, so the registry obeys the same bit-identical shard-merge
  // contract as the plain counters.
  obs::MetricsRegistry metrics;

  double p_failure_per_interval() const {
    return intervals ? static_cast<double>(failure_intervals) / intervals : 0.0;
  }
  double fit(double interval_s) const;
  double mttf_seconds(double interval_s) const;

  std::string summary() const;

  // Shard-merge reduction for the experiment engine: plain sums.
  McResult& operator+=(const McResult& other);
};

// Runs config.max_intervals intervals of the scheme config.scheme builds
// (SuDoku at config.level when empty).
McResult run_montecarlo(const McConfig& config);

}  // namespace sudoku::reliability
