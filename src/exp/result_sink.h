// ResultSink: every experiment writes one JSON artifact — config, merged
// result, throughput — under bench/out/ (or a caller-chosen directory) so
// later PRs can diff reliability numbers and track the perf trajectory.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "exp/errors.h"
#include "exp/json.h"
#include "obs/metrics.h"

namespace sudoku::exp {

// Wall-clock accounting of one engine invocation.
struct RunStats {
  std::uint64_t trials = 0;     // intervals actually executed
  double wall_seconds = 0.0;
  unsigned threads = 0;
  std::uint64_t shards = 0;

  double trials_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(trials) / wall_seconds : 0.0;
  }

  RunStats& operator+=(const RunStats& other) {
    trials += other.trials;
    wall_seconds += other.wall_seconds;
    threads = other.threads;  // last run's worker count
    shards += other.shards;
    return *this;
  }

  JsonObject to_json() const;
};

class ResultSink {
 public:
  explicit ResultSink(std::filesystem::path out_dir = "bench/out")
      : out_dir_(std::move(out_dir)) {}

  const std::filesystem::path& out_dir() const { return out_dir_; }

  // Writes <out_dir>/<name>.json with {"experiment", "config", "result",
  // "throughput"[, "metrics"]} and returns the path. Creates the directory
  // as needed. When `metrics` is non-null its snapshot is embedded as the
  // artifact's "metrics" section (present even when empty, so consumers
  // can rely on the key). When `report` is non-null and degraded (shards
  // quarantined), the artifact additionally carries "degraded": true and
  // the structured "shard_errors" records — clean runs stay byte-for-byte
  // unchanged. The file is published atomically (temp + fsync + rename,
  // exp/atomic_file.h), so a crash mid-write never leaves a half-written
  // JSON. Throws std::runtime_error when the directory cannot be created
  // or the file cannot be written — artifacts are the experiment's whole
  // point, so losing one silently is not an option.
  std::filesystem::path write(const std::string& name, const JsonObject& config,
                              const JsonObject& result, const RunStats& stats,
                              const obs::MetricsRegistry* metrics = nullptr,
                              const ShardRunReport* report = nullptr) const;

  // Escape hatch for artifacts that don't fit the config/result shape.
  // Same error and atomicity contract as write().
  std::filesystem::path write_raw(const std::string& name,
                                  const JsonObject& root) const;

  // Assembles the standard artifact root without writing it (what write()
  // persists; benches reuse it for --json stdout dumps).
  static JsonObject make_root(const std::string& name, const JsonObject& config,
                              const JsonObject& result, const RunStats& stats,
                              const obs::MetricsRegistry* metrics = nullptr,
                              const ShardRunReport* report = nullptr);

 private:
  std::filesystem::path out_dir_;
};

}  // namespace sudoku::exp
