// Engine adapter for the Monte-Carlo loop: shard the interval budget, run
// each shard with per-trial seed streams on the work-stealing pool, and
// merge deterministically. Merged counts are bit-identical for any thread
// count (see docs/exp_engine.md for the exact contract).
//
// Fault tolerance (docs/robustness.md): pass a CheckpointStore to persist
// every finished shard and replay them on resume; pass a ShardRunReport to
// get quarantine/retry/interrupt accounting. Runs always have quarantine
// on — a throwing trial degrades the campaign instead of terminating it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "exp/checkpoint.h"
#include "exp/errors.h"
#include "exp/result_sink.h"
#include "exp/sharder.h"
#include "reliability/montecarlo.h"

namespace sudoku::exp {

struct ExpOptions {
  unsigned threads = 0;     // pool width; 0 = one per hardware thread
  std::uint64_t chunk = 0;  // trials per shard; 0 = default_chunk(total)

  // ---- fault tolerance ----
  // Checkpoint store (nullable). The checkpoint key is derived inside the
  // adapter from (checkpoint_scope, full config, resolved shard plan,
  // seed), so any config change cold-starts automatically.
  CheckpointStore* checkpoint = nullptr;
  // Disambiguates runs whose configs would hash identically (e.g. the same
  // McConfig driven through different scheme factories, which cannot be
  // hashed). Also names the checkpoint subdirectory.
  std::string checkpoint_scope;
  // Tries per shard before quarantine (minimum 1).
  unsigned max_attempts = 3;
  // Accumulates resume/retry/quarantine/interrupt accounting across calls.
  ShardRunReport* report = nullptr;
  // Progress/test hook: fired after each live shard completes.
  std::function<void(const Shard&)> after_shard;

  // ---- fleet (multi-process shard queue, docs/fleet.md) ----
  // When set, shards are claimed exclusively through the checkpoint store
  // before they run, so N independent processes pointed at the same store
  // split one experiment and each merge the same bit-identical result.
  // Requires `checkpoint` (the store is the coordination medium); the
  // adapters throw std::runtime_error if fleet is requested without it.
  bool fleet = false;
  // Claim lease: a claim this old with no published result is stealable.
  unsigned lease_ms = 10000;
  // Sleep between polls of a sibling-owned shard in the wait pass.
  unsigned poll_ms = 20;
};

// Parallel reliability::run_montecarlo, for SuDoku or any config.scheme
// (each shard builds its own instance). config.seed / max_intervals /
// target_failures keep their sequential meanings; the per-trial-stream and
// shard fields of `config` are managed by the engine and ignored on input.
reliability::McResult run_montecarlo_parallel(const reliability::McConfig& config,
                                              const ExpOptions& options = {},
                                              RunStats* stats = nullptr);

// ---- checkpoint payload codecs ----------------------------------------
// Round-trip-exact JSON (de)serialization of shard results, including the
// embedded metrics registry: decode(encode(r)) reproduces r bit for bit,
// which is what makes resumed merges byte-identical to uninterrupted ones.
// decode returns std::nullopt on any malformed payload (torn file, schema
// drift, a payload version other than the current one) — the engine then
// recomputes the shard.
std::string encode_mc_result(const reliability::McResult& r);
std::optional<reliability::McResult> decode_mc_result(const std::string& payload);

}  // namespace sudoku::exp
