#include "baselines/twodp_cache.h"

namespace sudoku::baselines {

namespace {
SudokuConfig make_config(std::uint64_t num_lines, std::uint32_t group_size) {
  SudokuConfig cfg;
  cfg.geo.num_lines = num_lines;
  cfg.geo.group_size = group_size;
  cfg.level = SudokuLevel::kY;  // vertical parity + resurrection, one hash
  return cfg;
}
}  // namespace

TwoDpCache::TwoDpCache(std::uint64_t num_lines, std::uint32_t group_size)
    : ctrl_(make_config(num_lines, group_size)) {}

reliability::UnitScrubStats TwoDpCache::scrub_units(std::span<const std::uint64_t> units) {
  const auto s = ctrl_.scrub_lines(units);
  reliability::UnitScrubStats stats;
  stats.corrected = s.ecc1_corrections + s.raid4_repairs + s.sdr_repairs;
  stats.due_units = s.due_lines;
  stats.due_unit_ids = s.due_line_ids;
  return stats;
}

}  // namespace sudoku::baselines
