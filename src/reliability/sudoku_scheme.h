// SuDoku X/Y/Z (sudoku/controller.h) behind the scheme interface: the one
// class through which both the Monte-Carlo loop and the memory service
// drive the controller. A unit is one stored line, so unit ids and data
// line ids coincide.
#pragma once

#include "reliability/scheme.h"
#include "sudoku/controller.h"

namespace sudoku::reliability {

class SudokuScheme final : public CacheScheme {
 public:
  explicit SudokuScheme(const SudokuConfig& config) : ctrl_(config) {}

  SudokuController& controller() { return ctrl_; }

  std::string name() const override { return to_string(ctrl_.config().level); }
  SttramArray& array() override { return ctrl_.array(); }
  const SttramArray& array() const override { return ctrl_.array(); }
  void format_random(Rng& rng) override { ctrl_.format_random(rng); }

  UnitScrubStats scrub_units(std::span<const std::uint64_t> units) override;
  UnitScrubStats scrub_all() override;
  void restore_units(std::span<const std::uint64_t> units,
                     const SttramArray& golden) override;
  void attach_metrics(obs::MetricsRegistry* registry) override {
    ctrl_.attach_metrics(registry);
  }
  LoopSeries loop_series() const override;

  std::uint64_t num_data_lines() const override { return ctrl_.config().geo.num_lines; }
  void format_lines(const std::function<BitVec(std::uint64_t)>& make_data) override {
    ctrl_.format(make_data);
  }
  ReadReply read_line_data(std::uint64_t line) override { return ctrl_.read_data(line); }
  void write_line_data(std::uint64_t line, const BitVec& data512) override {
    ctrl_.write_data(line, data512);
  }
  bool probe_clean_line(std::uint64_t line, BitVec& scratch,
                        BitVec& data_out) const override;

 private:
  SudokuController ctrl_;
};

}  // namespace sudoku::reliability
