#include "service/backend.h"

#include "baselines/hiecc_cache.h"
#include "sudoku/line_codec.h"

namespace sudoku::service {

const char* to_string(ReadStatus status) {
  switch (status) {
    case ReadStatus::kClean: return "clean";
    case ReadStatus::kCorrected: return "corrected";
    case ReadStatus::kRepaired: return "repaired";
    case ReadStatus::kDue: return "due";
  }
  return "?";
}

namespace {

ScrubReport to_report(ScrubStats stats) {
  ScrubReport report;
  report.due = stats.due_lines;
  report.due_units = std::move(stats.due_line_ids);
  report.repaired_units = std::move(stats.repaired_line_ids);
  return report;
}

class SudokuBackend final : public Backend {
 public:
  explicit SudokuBackend(const SudokuConfig& config) : ctrl_(config) {}

  std::string name() const override {
    return to_string(ctrl_.config().level);
  }

  std::uint64_t num_lines() const override { return ctrl_.config().geo.num_lines; }
  std::uint64_t num_units() const override { return num_lines(); }
  std::uint32_t bits_per_unit() const override { return ctrl_.array().bits_per_line(); }
  std::uint64_t unit_of_line(std::uint64_t line) const override { return line; }

  void format(const std::function<BitVec(std::uint64_t)>& make_data) override {
    ctrl_.format(make_data);
  }

  ReadReply read(std::uint64_t line) override {
    auto res = ctrl_.read_data(line);
    ReadReply reply;
    reply.data = std::move(res.data);
    switch (res.outcome) {
      case SudokuController::ReadOutcome::kClean:
        reply.status = ReadStatus::kClean;
        break;
      case SudokuController::ReadOutcome::kCorrected:
        reply.status = ReadStatus::kCorrected;
        break;
      case SudokuController::ReadOutcome::kRepaired:
        reply.status = ReadStatus::kRepaired;
        break;
      case SudokuController::ReadOutcome::kDue:
        reply.status = ReadStatus::kDue;
        break;
    }
    return reply;
  }

  void write(std::uint64_t line, const BitVec& data512) override {
    ctrl_.write_data(line, data512);
  }

  ScrubReport scrub_units_report(std::span<const std::uint64_t> units) override {
    return to_report(ctrl_.scrub_lines(units));
  }

  ScrubReport scrub_all_report() override { return to_report(ctrl_.scrub_all()); }

  void inject(const FaultBatch& batch) override {
    FaultInjector::apply(batch, ctrl_.array());
  }

  SttramArray& raw_array() override { return ctrl_.array(); }

  bool try_clean_read(std::uint64_t line, BitVec& stored_scratch,
                      BitVec& data_out) const override {
    ctrl_.array().read_line(line, stored_scratch);
    // fully_clean (CRC + inner syndrome) — the exact predicate under which
    // the controller's own read path would return kClean without touching
    // storage, so the fast path never diverges from the legacy result.
    if (!ctrl_.codec().fully_clean(stored_scratch)) return false;
    data_out = ctrl_.codec().extract_data(stored_scratch);
    return true;
  }

  void attach_metrics(obs::MetricsRegistry* registry) override {
    ctrl_.attach_metrics(registry);
  }

  bool consistent() const override { return ctrl_.parities_consistent(); }

 private:
  SudokuController ctrl_;
};

class HiEccBackend final : public Backend {
 public:
  HiEccBackend(std::uint64_t num_lines, int t) : cache_(num_lines, t) {}

  std::string name() const override { return cache_.name(); }

  std::uint64_t num_lines() const override { return cache_.num_data_lines(); }
  std::uint64_t num_units() const override { return cache_.num_units(); }
  std::uint32_t bits_per_unit() const override { return cache_.bits_per_unit(); }
  std::uint64_t unit_of_line(std::uint64_t line) const override {
    return line / baselines::HiEccCache::kLinesPerRegion;
  }

  void format(const std::function<BitVec(std::uint64_t)>& make_data) override {
    cache_.format_lines(make_data);
  }

  ReadReply read(std::uint64_t line) override {
    auto res = cache_.read_line_data(line);
    ReadReply reply;
    reply.data = std::move(res.data);
    switch (res.status) {
      case baselines::HiEccCache::LineReadStatus::kClean:
        reply.status = ReadStatus::kClean;
        break;
      case baselines::HiEccCache::LineReadStatus::kCorrected:
        reply.status = ReadStatus::kCorrected;
        break;
      case baselines::HiEccCache::LineReadStatus::kDue:
        reply.status = ReadStatus::kDue;
        break;
    }
    return reply;
  }

  void write(std::uint64_t line, const BitVec& data512) override {
    cache_.write_line_data(line, data512);
  }

  ScrubReport scrub_units_report(std::span<const std::uint64_t> units) override {
    auto stats = cache_.scrub_units(units);
    ScrubReport report;
    report.due = stats.due_units;
    report.due_units = std::move(stats.due_unit_ids);
    // UnitScrubStats does not track which units were corrected in place, so
    // Hi-ECC retirement strikes come only from DUE units and read outcomes.
    return report;
  }

  ScrubReport scrub_all_report() override {
    std::vector<std::uint64_t> all(cache_.num_units());
    for (std::uint64_t i = 0; i < all.size(); ++i) all[i] = i;
    return scrub_units_report(all);
  }

  void inject(const FaultBatch& batch) override {
    FaultInjector::apply(batch, cache_.array());
  }

  SttramArray& raw_array() override { return cache_.array(); }

  bool try_clean_read(std::uint64_t line, BitVec& stored_scratch,
                      BitVec& data_out) const override {
    return cache_.probe_clean_line(line, stored_scratch, data_out);
  }

  void attach_metrics(obs::MetricsRegistry* registry) override {
    // Hi-ECC has no controller-level instruments; the service's shard and
    // worker counters cover it.
    (void)registry;
  }

  bool consistent() const override {
    // No parity tables; consistency is per-region syndrome cleanliness,
    // which scrubbing verifies. Nothing cheap to assert here.
    return true;
  }

 private:
  baselines::HiEccCache cache_;
};

}  // namespace

std::unique_ptr<Backend> make_sudoku_backend(const SudokuConfig& config) {
  return std::make_unique<SudokuBackend>(config);
}

std::unique_ptr<Backend> make_hiecc_backend(std::uint64_t num_lines, int t) {
  return std::make_unique<HiEccBackend>(num_lines, t);
}

}  // namespace sudoku::service
