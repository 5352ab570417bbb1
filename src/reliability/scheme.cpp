#include "reliability/scheme.h"

#include <stdexcept>

#include "reliability/sudoku_scheme.h"

namespace sudoku::reliability {

UnitScrubStats CacheScheme::scrub_all() {
  std::vector<std::uint64_t> all(num_units());
  for (std::uint64_t i = 0; i < all.size(); ++i) all[i] = i;
  return scrub_units(all);
}

void CacheScheme::restore_units(std::span<const std::uint64_t> units,
                                const SttramArray& golden) {
  BitVec line(bits_per_unit());
  for (const auto unit : units) {
    golden.read_line(unit, line);
    array().write_line(unit, line);
  }
}

LoopSeries CacheScheme::loop_series() const {
  return {"baseline.intervals",        "baseline.sdc_units",
          "baseline.failure_intervals", "baseline.faults_per_interval",
          "baseline.corrected",        "baseline.due_units"};
}

void CacheScheme::no_data_path() const {
  throw std::logic_error(name() + " has no line data path");
}

std::uint64_t CacheScheme::num_data_lines() const { no_data_path(); }

void CacheScheme::format_lines(const std::function<BitVec(std::uint64_t)>&) {
  no_data_path();
}

ReadReply CacheScheme::read_line_data(std::uint64_t) { no_data_path(); }

void CacheScheme::write_line_data(std::uint64_t, const BitVec&) { no_data_path(); }

bool CacheScheme::probe_clean_line(std::uint64_t, BitVec&, BitVec&) const {
  no_data_path();
}

namespace {

UnitScrubStats to_unit_stats(ScrubStats s) {
  UnitScrubStats out;
  out.corrected = s.ecc1_corrections + s.raid4_repairs + s.sdr_repairs;
  out.due_units = s.due_lines;
  out.due_unit_ids = std::move(s.due_line_ids);
  out.repaired_unit_ids = std::move(s.repaired_line_ids);
  out.ecc1_corrections = s.ecc1_corrections;
  out.raid4_repairs = s.raid4_repairs;
  out.sdr_repairs = s.sdr_repairs;
  out.hash2_invocations = s.hash2_invocations;
  out.groups_repaired = s.groups_repaired;
  return out;
}

}  // namespace

UnitScrubStats SudokuScheme::scrub_units(std::span<const std::uint64_t> units) {
  return to_unit_stats(ctrl_.scrub_lines(units));
}

UnitScrubStats SudokuScheme::scrub_all() { return to_unit_stats(ctrl_.scrub_all()); }

void SudokuScheme::restore_units(std::span<const std::uint64_t> units,
                                 const SttramArray& golden) {
  CacheScheme::restore_units(units, golden);
  ctrl_.rebuild_parities_for(units);
}

LoopSeries SudokuScheme::loop_series() const {
  return {"mc.intervals", "mc.sdc_lines", "mc.failure_intervals",
          "mc.faults_per_interval", nullptr, nullptr};
}

bool SudokuScheme::probe_clean_line(std::uint64_t line, BitVec& scratch,
                                    BitVec& data_out) const {
  ctrl_.array().read_line(line, scratch);
  // fully_clean (CRC + inner syndrome) is exactly the predicate under which
  // read_data returns kClean without touching storage, so the fast path
  // never diverges from the locked read.
  if (!ctrl_.codec().fully_clean(scratch)) return false;
  data_out = ctrl_.codec().extract_data(scratch);
  return true;
}

}  // namespace sudoku::reliability
