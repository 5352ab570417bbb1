// The one interface the Monte-Carlo loop (reliability/montecarlo.h) drives:
// a protected array of "units" — the scheme's protection granule, a 64 B
// line for SuDoku and most baselines, a 1 KB region for Hi-ECC. SuDoku X/Y/Z
// and every baseline the paper compares against (§II ECC-k, §VIII CPPC /
// RAID-6 / 2DP / Hi-ECC) implement it. Each scheme owns its stored bit
// array; the loop injects faults straight into that array, scrubs, and
// classifies DUE/SDC against a golden copy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "sttram/array.h"

namespace sudoku::reliability {

struct UnitScrubStats {
  std::uint64_t corrected = 0;  // units repaired in place
  std::uint64_t due_units = 0;  // declared uncorrectable
  std::vector<std::uint64_t> due_unit_ids;
  // SuDoku's repair-ladder rungs (controller ScrubStats); zero for the
  // baselines.
  std::uint64_t ecc1_corrections = 0;
  std::uint64_t raid4_repairs = 0;
  std::uint64_t sdr_repairs = 0;
  std::uint64_t hash2_invocations = 0;
  std::uint64_t groups_repaired = 0;
};

// Names of the loop's own metric series for a scheme. SuDoku's controller
// records its repair and DUE events itself (sudoku.*), so its series have
// no corrected/DUE counters; the baselines get those from the loop.
struct LoopSeries {
  const char* intervals;
  const char* sdc;
  const char* failure_intervals;
  const char* faults_per_interval;
  const char* corrected;  // nullptr = not recorded
  const char* due;        // nullptr = not recorded
};

class CacheScheme {
 public:
  virtual ~CacheScheme() = default;

  virtual std::string name() const = 0;
  virtual SttramArray& array() = 0;
  virtual const SttramArray& array() const = 0;
  std::uint64_t num_units() const { return array().num_lines(); }
  std::uint32_t bits_per_unit() const { return array().bits_per_line(); }

  // Fill every unit with random encoded content; rebuild any parity state.
  virtual void format_random(Rng& rng) = 0;

  // Scrub the given units (sparse: only units with injected faults).
  virtual UnitScrubStats scrub_units(std::span<const std::uint64_t> units) = 0;

  // Canonical restore (refill after data loss, undo of a miscorrection):
  // copy golden's image of every listed unit back into the array and
  // resynchronise the parity covering them, once per affected group. The
  // default only copies: faults flip stored bits, never parity, so the
  // baselines' parity already matches golden.
  virtual void restore_units(std::span<const std::uint64_t> units,
                             const SttramArray& golden);

  // Host write of fresh random data to `unit` through the scheme's own
  // write path (McConfig::host_writes_per_interval). Only SuDoku models
  // one; the default throws std::logic_error.
  virtual void write_random(std::uint64_t unit, Rng& rng);

  // Attach the scheme's own event series (nullptr detaches). Default: none.
  virtual void attach_metrics(obs::MetricsRegistry* registry) { (void)registry; }

  // Default: the baseline.* series.
  virtual LoopSeries loop_series() const;
};

// Builds a fresh scheme; each shard of a parallel run drives its own.
using SchemeFactory = std::function<std::unique_ptr<CacheScheme>()>;

}  // namespace sudoku::reliability
