// Shared pieces of the repository benchmark: the result record every mode
// fills, raw-sample statistics, the self-checking line payload the serve
// workloads write, and time-budgeted repetition helpers. Everything here is
// pure or single-threaded so the self-test (selftest.cpp) can pin it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvec.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// ---- statistics over raw samples -----------------------------------------

// Quantile q in [0, 1] of the samples, linear interpolation between the two
// closest ranks (rank = q·(n−1), numpy's default). Sorts `samples` in place.
// Returns 0 for an empty set.
double quantile_sorted_inplace(std::vector<double>& samples, double q);
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
// Samples strictly greater than `threshold`.
std::uint64_t count_above(const std::vector<double>& samples, double threshold);

// Operations attempted and failed, the numerator and denominator of the
// benchmark's error rate. For serve, a failed op is a kDue read or a failed
// payload audit; for Monte-Carlo, a trial in a quarantined shard or in a
// campaign whose counts differ from the reference.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
  }
  double error_rate() const {
    return attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                     : 0.0;
  }
  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    return *this;
  }
};

// ---- self-checking payloads -----------------------------------------------
// A 512-bit payload names its own address and writer tag and ends in a
// checksum over the other seven words. format() writes tag 0, so "formatted
// pattern or a well-formed payload for this address" is one predicate.
sudoku::BitVec make_payload(std::uint64_t addr, std::uint64_t tag);
void fill_payload(sudoku::BitVec& out, std::uint64_t addr, std::uint64_t tag);
bool payload_ok(std::uint64_t addr, const sudoku::BitVec& data);

// ---- results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  Tally tally;
  bool correct = true;
  std::vector<Metric> metrics;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Record a failed output check: the run is not correct, and the reason
  // goes to stderr.
  void fail(const std::string& why);
};

// The result line run.py checks and relays: {"correct", "attempted", "failed", "metrics":
// {name: {"value", "unit"}}}, values printed with every significant digit.
std::string render_json(const Result& r);

// Human-readable report line on stdout ("# ..."); only the last line of
// stdout is parsed.
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// ---- time-budgeted repetition ---------------------------------------------

// Run `fn` until `budget_s` has elapsed and at least `min_reps` calls were
// made; returns each call's duration in seconds.
template <typename Fn>
std::vector<double> repeat_for(double budget_s, std::size_t min_reps, Fn&& fn) {
  std::vector<double> durations;
  const auto start = Clock::now();
  while (durations.size() < min_reps ||
         seconds_between(start, Clock::now()) < budget_s) {
    const auto t0 = Clock::now();
    fn();
    durations.push_back(seconds_between(t0, Clock::now()));
  }
  return durations;
}

// Median nanoseconds per call of `fn(i)`, timed in batches of `batch`
// calls (i counts up across the whole measurement, so callers can walk a
// prepared input set) for about `budget_s`.
template <typename Fn>
double median_ns_per_call(double budget_s, std::size_t batch, Fn&& fn) {
  std::uint64_t i = 0;
  auto per_batch = repeat_for(budget_s, 5, [&] {
    for (std::size_t k = 0; k < batch; ++k) fn(i++);
  });
  return median(std::move(per_batch)) * 1e9 / static_cast<double>(batch);
}

// Set-up is sampled between measured rounds, not in one burst, so its
// median spans the same stretch of host time as the round figures: call
// after each round with budget = share of the elapsed measurement; it
// rebuilds until `spent` reaches the budget. What `build` returns is
// destroyed outside the timed span.
template <typename Build>
void sample_setup(std::vector<double>& times, double& spent, double budget_s,
                  Build&& build) {
  while (spent < budget_s) {
    const auto t0 = Clock::now();
    auto built = build();
    const double dt = seconds_between(t0, Clock::now());
    times.push_back(dt);
    spent += dt;
  }
}

// Share of a run's measurement time spent re-timing set-up.
inline constexpr double kSetupShare = 0.1;

// Process peak resident set, in MiB.
double peak_rss_mb();

// Keeps a computed value alive so the optimiser cannot drop the call.
void sink(std::uint64_t v);

}  // namespace perfbench
