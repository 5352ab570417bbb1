#include "reliability/montecarlo.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/prob.h"
#include "obs/macros.h"
#include "sttram/fault_injector.h"

namespace sudoku::reliability {

double McResult::fit(double interval_s) const {
  return p_failure_per_interval() * (kSecondsPerBillionHours / interval_s);
}

double McResult::mttf_seconds(double interval_s) const {
  const double p = p_failure_per_interval();
  return p > 0 ? interval_s / p : 1e300;
}

McResult& McResult::operator+=(const McResult& other) {
  metrics += other.metrics;
  intervals += other.intervals;
  faults_injected += other.faults_injected;
  corrected += other.corrected;
  ecc1_corrections += other.ecc1_corrections;
  raid4_repairs += other.raid4_repairs;
  sdr_repairs += other.sdr_repairs;
  hash2_invocations += other.hash2_invocations;
  groups_repaired += other.groups_repaired;
  due_lines += other.due_lines;
  sdc_lines += other.sdc_lines;
  failure_intervals += other.failure_intervals;
  return *this;
}

std::string McResult::summary() const {
  std::ostringstream os;
  os << "intervals=" << intervals << " faults=" << faults_injected
     << " ecc1=" << ecc1_corrections << " raid4=" << raid4_repairs
     << " sdr=" << sdr_repairs << " hash2=" << hash2_invocations
     << " due_lines=" << due_lines << " sdc_lines=" << sdc_lines
     << " failure_intervals=" << failure_intervals;
  return os.str();
}

namespace {

// SuDoku X/Y/Z behind the scheme interface.
class SudokuScheme final : public CacheScheme {
 public:
  explicit SudokuScheme(const McConfig& config) : ctrl_(make_config(config)) {}

  std::string name() const override { return to_string(ctrl_.config().level); }
  SttramArray& array() override { return ctrl_.array(); }
  const SttramArray& array() const override { return ctrl_.array(); }
  void format_random(Rng& rng) override { ctrl_.format_random(rng); }

  UnitScrubStats scrub_units(std::span<const std::uint64_t> units) override {
    ScrubStats s = ctrl_.scrub_lines(units);
    UnitScrubStats out;
    out.corrected = s.ecc1_corrections + s.raid4_repairs + s.sdr_repairs;
    out.due_units = s.due_lines;
    out.due_unit_ids = std::move(s.due_line_ids);
    out.ecc1_corrections = s.ecc1_corrections;
    out.raid4_repairs = s.raid4_repairs;
    out.sdr_repairs = s.sdr_repairs;
    out.hash2_invocations = s.hash2_invocations;
    out.groups_repaired = s.groups_repaired;
    return out;
  }

  void restore_units(std::span<const std::uint64_t> units,
                     const SttramArray& golden) override {
    CacheScheme::restore_units(units, golden);
    ctrl_.rebuild_parities_for(units);
  }

  void write_random(std::uint64_t unit, Rng& rng) override {
    BitVec data(LineCodec::kDataBits);
    for (auto& word : data.words()) word = rng.next_u64();
    ctrl_.write_data(unit, data);
  }

  void attach_metrics(obs::MetricsRegistry* registry) override {
    ctrl_.attach_metrics(registry);
  }

  LoopSeries loop_series() const override {
    return {"mc.intervals", "mc.sdc_lines", "mc.failure_intervals",
            "mc.faults_per_interval", nullptr, nullptr};
  }

 private:
  static SudokuConfig make_config(const McConfig& config) {
    SudokuConfig c;
    c.geo.num_lines = config.cache.num_lines;
    c.geo.group_size = config.cache.group_size;
    c.level = config.level;
    return c;
  }

  SudokuController ctrl_;
};

// The loop's instruments; all null when observability is compiled out.
struct LoopInstruments {
  obs::Counter* intervals = nullptr;
  obs::Counter* sdc = nullptr;
  obs::Counter* failure_intervals = nullptr;
  obs::Histogram* faults_per_interval = nullptr;
  obs::Counter* corrected = nullptr;
  obs::Counter* due = nullptr;
  // Scenario-only series (faults.*), created only in scenario mode so
  // i.i.d. runs keep their exact artifact schema.
  obs::Counter* scn_transient = nullptr;
  obs::Counter* scn_stuck = nullptr;
  obs::Counter* scn_cluster = nullptr;

  LoopInstruments(obs::MetricsRegistry& reg, const LoopSeries& names,
                  bool scenario) {
#if SUDOKU_OBS_ENABLED
    intervals = reg.counter(names.intervals);
    sdc = reg.counter(names.sdc);
    failure_intervals = reg.counter(names.failure_intervals);
    faults_per_interval = reg.histogram(
        names.faults_per_interval, {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
    if (names.corrected) corrected = reg.counter(names.corrected);
    if (names.due) due = reg.counter(names.due);
    if (scenario) {
      scn_transient = reg.counter("faults.transient_bits");
      scn_stuck = reg.counter("faults.stuck_cells");
      scn_cluster = reg.counter("faults.cluster_events");
    }
#else
    (void)reg;
    (void)names;
    (void)scenario;
#endif
  }
};

// The interval loop, for every scheme and both fault sources: inject →
// assert stuck cells → scrub → re-assert → classify → canonical restore.
McResult run_intervals(CacheScheme& scheme, const McConfig& config) {
  // In per-trial-stream mode formatting uses the reserved stream so every
  // shard of an experiment holds identical golden contents; the same Rng
  // object is then reseeded per interval from that trial's stream.
  Rng rng(config.per_trial_seed_streams
              ? Rng::derive_stream_seed(config.seed, kFormatStream)
              : config.seed);
  scheme.format_random(rng);
  // Golden copy of every stored unit for SDC detection and restore.
  SttramArray golden = scheme.array();

  if (config.scenario) {
    const faults::Geometry& g = config.scenario->geometry();
    if (g.num_units != scheme.num_units() || g.bits_per_unit != scheme.bits_per_unit()) {
      std::fprintf(stderr,
                   "run_montecarlo: scenario geometry (%llu x %u) does not "
                   "match scheme %s (%llu x %u)\n",
                   static_cast<unsigned long long>(g.num_units), g.bits_per_unit,
                   scheme.name().c_str(),
                   static_cast<unsigned long long>(scheme.num_units()),
                   scheme.bits_per_unit());
      std::abort();
    }
  }
  const FaultInjector injector(scheme.num_units(), scheme.bits_per_unit(),
                               config.cache.ber);

  McResult result;
  // Everything recorded is a deterministic event count, so the engine's
  // shard merge stays bit-identical for any thread count.
  const LoopInstruments m(result.metrics, scheme.loop_series(),
                          config.scenario != nullptr);
#if SUDOKU_OBS_ENABLED
  scheme.attach_metrics(&result.metrics);
#endif
  std::vector<std::uint64_t> touched;
  std::vector<std::uint64_t> dirty;
  BitVec golden_unit(scheme.bits_per_unit());
  for (std::uint64_t interval = 0; interval < config.max_intervals; ++interval) {
    if (config.stop_hook && config.stop_hook()) break;
    const std::uint64_t t = config.first_trial + interval;
    if (config.per_trial_seed_streams) {
      rng.reseed(Rng::derive_stream_seed(config.seed, t));
    }

    // Inject. A scenario draws from its own per-(source, interval) streams
    // keyed by the global trial index, so the outcome is independent of
    // sharding; the i.i.d. source has no stuck cells.
    FaultBatch batch;
    faults::ActiveStuck stuck;
    std::uint64_t flips = 0;
    if (config.scenario) {
      faults::ScenarioTick tick;
      batch = config.scenario->transient(t, &tick);
      stuck = config.scenario->stuck(t);
      flips = tick.transient_bits;
      OBS_ADD(m.scn_transient, tick.transient_bits);
      OBS_ADD(m.scn_stuck, stuck.cells().size());
      OBS_ADD(m.scn_cluster, tick.cluster_events);
    } else {
      batch = config.fixed_fault_count >= 0
                  ? injector.sample_exact(
                        rng, static_cast<std::uint64_t>(config.fixed_fault_count))
                  : injector.sample_interval(rng);
      flips = FaultInjector::count(batch);
    }
    result.faults_injected += flips;
    OBS_OBSERVE(m.faults_per_interval, flips);
    FaultInjector::apply(batch, scheme.array());
    stuck.assert_on(scheme.array());

    touched.clear();
    touched.reserve(batch.size() + stuck.units().size());
    for (const auto& [unit, bits] : batch) touched.push_back(unit);
    if (config.scenario) {
      touched.insert(touched.end(), stuck.units().begin(), stuck.units().end());
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    } else {
      // §VIII-B: host write traffic with write errors. Each write stores a
      // fresh payload (mirrored into golden) and then flips written bits
      // with probability `wer` — indistinguishable from retention faults
      // to the scheme, which is the paper's point.
      const std::uint32_t width = scheme.bits_per_unit();
      for (std::uint64_t w = 0; w < config.host_writes_per_interval; ++w) {
        const std::uint64_t unit = rng.next_below(scheme.num_units());
        scheme.write_random(unit, rng);
        golden.write_line(unit, scheme.array().read_line(unit));
        const std::uint64_t nflips = rng.next_binomial(width, config.wer);
        for (std::uint64_t f = 0; f < nflips; ++f) {
          scheme.array().flip(unit, static_cast<std::uint32_t>(rng.next_below(width)));
        }
        result.faults_injected += nflips;
        if (nflips > 0 && std::find(touched.begin(), touched.end(), unit) == touched.end()) {
          touched.push_back(unit);
        }
      }
    }

    // Scrub. The repairs wrote good values over stuck cells, but those
    // cells do not hold them: re-assert before classifying, so a stuck bit
    // is never mistaken for repaired state.
    const UnitScrubStats stats = scheme.scrub_units(touched);
    stuck.assert_on(scheme.array());
    result.corrected += stats.corrected;
    result.ecc1_corrections += stats.ecc1_corrections;
    result.raid4_repairs += stats.raid4_repairs;
    result.sdr_repairs += stats.sdr_repairs;
    result.hash2_invocations += stats.hash2_invocations;
    result.groups_repaired += stats.groups_repaired;
    result.due_lines += stats.due_units;
    OBS_ADD(m.corrected, stats.corrected);
    OBS_ADD(m.due, stats.due_units);

    // Classify: a non-DUE unit that differs from golden outside its stuck
    // cells is silent corruption. DUE units are rare and few per interval;
    // a linear scan of the small id vector beats building a set.
    bool interval_failed = stats.due_units > 0;
    const auto& due_ids = stats.due_unit_ids;
    dirty.clear();
    for (const auto unit : touched) {
      if (std::find(due_ids.begin(), due_ids.end(), unit) != due_ids.end()) continue;
      golden.read_line(unit, golden_unit);
      if (scheme.array().line_equals(unit, golden_unit)) continue;
      dirty.push_back(unit);
      if (!stuck.equal_outside_stuck(unit, scheme.array().read_line(unit), golden_unit)) {
        ++result.sdc_lines;
        OBS_INC(m.sdc);
        interval_failed = true;
      }
    }
    // Restore every touched or DUE unit that differs from golden (stuck
    // bits included: the next interval re-asserts them), in one batch so
    // each parity group is resynchronised once.
    for (const auto unit : due_ids) {
      golden.read_line(unit, golden_unit);
      if (!scheme.array().line_equals(unit, golden_unit)) dirty.push_back(unit);
    }
    scheme.restore_units(dirty, golden);

    if (interval_failed) {
      ++result.failure_intervals;
      OBS_INC(m.failure_intervals);
    }
    ++result.intervals;
    OBS_INC(m.intervals);
    if (config.target_failures != 0 && result.failure_intervals >= config.target_failures) {
      break;
    }
  }
  return result;
}

}  // namespace

void CacheScheme::restore_units(std::span<const std::uint64_t> units,
                                const SttramArray& golden) {
  BitVec line(bits_per_unit());
  for (const auto unit : units) {
    golden.read_line(unit, line);
    array().write_line(unit, line);
  }
}

void CacheScheme::write_random(std::uint64_t unit, Rng& rng) {
  (void)unit;
  (void)rng;
  throw std::logic_error(name() + " has no host write path");
}

LoopSeries CacheScheme::loop_series() const {
  return {"baseline.intervals",        "baseline.sdc_units",
          "baseline.failure_intervals", "baseline.faults_per_interval",
          "baseline.corrected",        "baseline.due_units"};
}

McResult run_montecarlo(const McConfig& config) {
  const std::unique_ptr<CacheScheme> scheme =
      config.scheme ? config.scheme() : std::make_unique<SudokuScheme>(config);
  return run_intervals(*scheme, config);
}

}  // namespace sudoku::reliability
