// The one interface of a protected array of "units" — the scheme's
// protection granule, a 64 B line for SuDoku and most baselines, a 1 KB
// region for Hi-ECC. SuDoku X/Y/Z (reliability/sudoku_scheme.h) and every
// baseline the paper compares against (§II ECC-k, §VIII CPPC / RAID-6 /
// 2DP / Hi-ECC) implement it. Each scheme owns its stored bit array. The
// Monte-Carlo loop (reliability/montecarlo.h) injects faults straight into
// that array, scrubs, and classifies DUE/SDC against a golden copy; the
// concurrent memory service (service/service.h) holds one scheme per bank
// and serves client reads and writes through its line data path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/read_status.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "sttram/array.h"
#include "sttram/fault_injector.h"

namespace sudoku::reliability {

struct UnitScrubStats {
  std::uint64_t corrected = 0;  // units repaired in place
  std::uint64_t due_units = 0;  // declared uncorrectable
  std::vector<std::uint64_t> due_unit_ids;
  // Units some repair wrote back (inner-code corrections, RAID-4 victims,
  // SDR resurrections), in repair order, possibly with duplicates. The
  // service's retirement policy consumes them: a unit that keeps showing
  // up here is a repair that did not stick, i.e. a suspected permanent
  // fault (docs/faults.md).
  std::vector<std::uint64_t> repaired_unit_ids;
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

  // Flip stored bits; batch keys are unit ids.
  void inject(const FaultBatch& batch) { FaultInjector::apply(batch, array()); }

  // Scrub the given units (sparse: only units with injected faults), or
  // every unit. The default scrub_all scrubs units 0..num_units()-1.
  virtual UnitScrubStats scrub_units(std::span<const std::uint64_t> units) = 0;
  virtual UnitScrubStats scrub_all();

  // Canonical restore (refill after data loss, undo of a miscorrection):
  // copy golden's image of every listed unit back into the array and
  // resynchronise the parity covering them, once per affected group. The
  // default only copies: faults flip stored bits, never parity, so the
  // baselines' parity already matches golden.
  virtual void restore_units(std::span<const std::uint64_t> units,
                             const SttramArray& golden);

  // Attach the scheme's own event series (nullptr detaches). Default: none.
  virtual void attach_metrics(obs::MetricsRegistry* registry) { (void)registry; }

  // Default: the baseline.* series.
  virtual LoopSeries loop_series() const;

  // ---- line data path ----
  // Clients address 512-bit data lines; unit u holds the lines_per_unit()
  // consecutive lines starting at u·lines_per_unit(). SuDoku X/Y/Z and the
  // region-ECC schemes (RegionEccCache, HiEccCache) implement it; ECC-k,
  // CPPC, RAID-6 and 2DP have none, and every virtual here throws
  // std::logic_error for them.
  //
  // Thread contract (the memory service): nothing here is thread-safe; the
  // owning bank serialises every mutating call behind its mutex and
  // seqlock epoch. probe_clean_line is the one call that may run while a
  // mutator is active.
  virtual std::uint64_t num_data_lines() const;
  std::uint64_t lines_per_unit() const { return num_data_lines() / num_units(); }
  std::uint64_t unit_of_line(std::uint64_t line) const {
    return line / lines_per_unit();
  }

  // Fill every line with make_data(line) and rebuild parity state.
  virtual void format_lines(const std::function<BitVec(std::uint64_t)>& make_data);

  // Full read, including inline correction and demand repair (may mutate
  // storage), and the read-modify-write of one line.
  virtual ReadReply read_line_data(std::uint64_t line);
  virtual void write_line_data(std::uint64_t line, const BitVec& data512);

  // Lock-free probe for the service's fast path: copy the stored unit into
  // `scratch` and, iff it is fully consistent, extract the line's data into
  // `data_out` and return true — exactly when read_line_data would return
  // kClean without touching storage. Never mutates anything. It may observe
  // a torn image while a mutator runs; the caller uses the result only
  // after re-validating its seqlock epoch.
  virtual bool probe_clean_line(std::uint64_t line, BitVec& scratch,
                                BitVec& data_out) const;

 private:
  [[noreturn]] void no_data_path() const;
};

// Builds a fresh scheme; each shard of a parallel run drives its own.
using SchemeFactory = std::function<std::unique_ptr<CacheScheme>()>;

}  // namespace sudoku::reliability
