// 2D error coding baseline (paper §VIII-A, Kim et al. [18]), in the
// "optimized" form the paper compares against: per-line ECC-1 + CRC-31 plus
// one vertical parity line per group, with mismatch-position resurrection.
// Functionally this is SuDoku-Y restricted to a single (non-skewed) hash —
// the paper's Table XI value for 2DP equals its SuDoku-Y DUE FIT — so the
// implementation adapts the SuDoku controller at level Y to the baseline
// interface.
#pragma once

#include "reliability/scheme.h"
#include "sudoku/controller.h"

namespace sudoku::baselines {

class TwoDpCache final : public reliability::CacheScheme {
 public:
  TwoDpCache(std::uint64_t num_lines, std::uint32_t group_size);

  std::string name() const override { return "2DP+ECC-1+CRC-31"; }
  SttramArray& array() override { return ctrl_.array(); }
  const SttramArray& array() const override { return ctrl_.array(); }

  void format_random(Rng& rng) override { ctrl_.format_random(rng); }
  reliability::UnitScrubStats scrub_units(std::span<const std::uint64_t> units) override;
  double overhead_bits_per_line() const {
    return 41.0 + static_cast<double>(ctrl_.codec().total_bits()) /
                      ctrl_.config().geo.group_size;
  }

 private:
  SudokuController ctrl_;
};

}  // namespace sudoku::baselines
