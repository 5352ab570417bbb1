#include "exp/mc_experiments.h"

#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/json_parse.h"
#include "exp/engine.h"
#include "exp/metrics_io.h"
#include "exp/sharder.h"
#include "exp/shutdown.h"
#include "exp/thread_pool.h"
#include "exp/work_queue.h"

namespace sudoku::exp {

namespace {

// 2: one payload for every scheme (adds "corrected"). Version-1 stores,
// from either of the old per-harness codecs, are recomputed.
constexpr std::uint64_t kPayloadVersion = 2;

std::uint64_t resolve_chunk(const ExpOptions& options, std::uint64_t total) {
  return options.chunk ? options.chunk : default_chunk(total);
}

// Canonical config fingerprinting for checkpoint keys. Doubles are hashed
// by bit pattern — any representable change invalidates, equal bits match.
void feed(std::ostringstream& os, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  os << bits << '|';
}
void feed(std::ostringstream& os, std::uint64_t v) { os << v << '|'; }

std::uint64_t hash_mc_config(const reliability::McConfig& c, std::uint64_t chunk,
                             const std::string& scope) {
  std::ostringstream os;
  os << "mc|" << scope << '|';
  feed(os, static_cast<std::uint64_t>(c.cache.num_lines));
  feed(os, static_cast<std::uint64_t>(c.cache.group_size));
  feed(os, c.cache.ber);
  feed(os, c.cache.scrub_interval_s);
  feed(os, static_cast<std::uint64_t>(c.cache.inner_ecc_t));
  feed(os, static_cast<std::uint64_t>(c.level));
  feed(os, c.seed);
  feed(os, c.max_intervals);
  feed(os, c.target_failures);
  // A scheme factory cannot be hashed; the checkpoint scope tells schemes
  // apart, this bit keeps baseline runs off SuDoku's checkpoints.
  feed(os, static_cast<std::uint64_t>(static_cast<bool>(c.scheme)));
  feed(os, static_cast<std::uint64_t>(c.fixed_fault_count + 1));
  feed(os, c.host_writes_per_interval);
  feed(os, c.wer);
  // Scenario identity (spec + geometry + seed): checkpoints recorded under
  // one fault scenario must never be adopted by a run under another.
  feed(os, c.scenario ? c.scenario->fingerprint() : std::uint64_t{0});
  feed(os, chunk);  // the shard plan is part of the key
  return fnv1a64(os.str());
}

// ---- payload helpers ---------------------------------------------------

bool read_u64(const JsonValue& root, const char* key, std::uint64_t* out) {
  const JsonValue* v = root.find(key);
  if (!v) return false;
  const auto n = v->as_u64();
  if (!n) return false;
  *out = *n;
  return true;
}

bool read_metrics(const JsonValue& root, obs::MetricsRegistry* out) {
  const JsonValue* m = root.find("metrics");
  if (!m) return false;
  auto reg = metrics_from_json(*m);
  if (!reg) return false;
  *out = std::move(*reg);
  return true;
}

bool payload_version_ok(const JsonValue& root) {
  std::uint64_t v = 0;
  return read_u64(root, "v", &v) && v == kPayloadVersion;
}

}  // namespace

reliability::McResult run_montecarlo_parallel(const reliability::McConfig& config,
                                              const ExpOptions& options,
                                              RunStats* stats) {
  const std::uint64_t chunk = resolve_chunk(options, config.max_intervals);
  RunShardedOptions<reliability::McResult> opt;
  opt.target_failures = config.target_failures;
  opt.quarantine = true;
  opt.max_attempts = options.max_attempts;
  opt.report = options.report;
  opt.after_shard = options.after_shard;
  if (options.checkpoint) {
    opt.checkpoint = options.checkpoint;
    opt.key.experiment = !options.checkpoint_scope.empty() ? options.checkpoint_scope
                         : config.scheme                   ? "baseline_mc"
                                                           : "montecarlo";
    opt.key.config_hash = hash_mc_config(config, chunk, options.checkpoint_scope);
    opt.key.base_seed = config.seed;
    opt.encode = &encode_mc_result;
    opt.decode = &decode_mc_result;
  }
  // Fleet mode: shards are claimed through the shared store before they
  // run; the queue must outlive the engine call.
  std::optional<ShardWorkQueue> queue;
  if (options.fleet) {
    if (!opt.checkpoint) {
      throw std::runtime_error(
          "ExpOptions: fleet mode requires a checkpoint store (the shared "
          "store is how workers coordinate)");
    }
    WorkQueueOptions qopt;
    qopt.lease = std::chrono::milliseconds(options.lease_ms);
    qopt.poll = std::chrono::milliseconds(options.poll_ms);
    queue.emplace(opt.checkpoint, opt.key, qopt);
    opt.queue = &*queue;
  }

  // One shard: install its per-trial stream window (the global
  // target_failures stays as the shard's own, bounding overshoot) and
  // report std::nullopt when it was abandoned via the early-stop hook or a
  // requested shutdown — the engine must not record such partial results.
  const auto run_shard = [&config](const Shard& shard, const EarlyStop& early)
      -> std::optional<reliability::McResult> {
    reliability::McConfig c = config;
    c.per_trial_seed_streams = true;
    c.first_trial = shard.first;
    c.max_intervals = shard.count;
    bool aborted = false;
    c.stop_hook = [&early, &aborted] {
      if (early.triggered() || shutdown_requested()) aborted = true;
      return aborted;
    };
    auto result = reliability::run_montecarlo(c);
    if (aborted) return std::nullopt;
    return result;
  };

  const auto shards = make_shards(config.max_intervals, chunk);
  ThreadPool pool(options.threads);
  const auto t0 = std::chrono::steady_clock::now();
  reliability::McResult merged =
      run_sharded<reliability::McResult>(pool, shards, opt, run_shard);
  const auto t1 = std::chrono::steady_clock::now();
  if (stats) {
    stats->trials = merged.intervals;
    stats->wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    stats->threads = pool.size();
    stats->shards = shards.size();
  }
  return merged;
}

std::string encode_mc_result(const reliability::McResult& r) {
  JsonObject o;
  o.set("v", kPayloadVersion)
      .set("intervals", r.intervals)
      .set("faults_injected", r.faults_injected)
      .set("corrected", r.corrected)
      .set("ecc1_corrections", r.ecc1_corrections)
      .set("raid4_repairs", r.raid4_repairs)
      .set("sdr_repairs", r.sdr_repairs)
      .set("hash2_invocations", r.hash2_invocations)
      .set("groups_repaired", r.groups_repaired)
      .set("due_lines", r.due_lines)
      .set("sdc_lines", r.sdc_lines)
      .set("failure_intervals", r.failure_intervals)
      .set("metrics", metrics_to_json(r.metrics));
  return o.str();
}

std::optional<reliability::McResult> decode_mc_result(const std::string& payload) {
  const auto root = json_parse(payload);
  if (!root || !payload_version_ok(*root)) return std::nullopt;
  reliability::McResult r;
  if (!read_u64(*root, "intervals", &r.intervals) ||
      !read_u64(*root, "faults_injected", &r.faults_injected) ||
      !read_u64(*root, "corrected", &r.corrected) ||
      !read_u64(*root, "ecc1_corrections", &r.ecc1_corrections) ||
      !read_u64(*root, "raid4_repairs", &r.raid4_repairs) ||
      !read_u64(*root, "sdr_repairs", &r.sdr_repairs) ||
      !read_u64(*root, "hash2_invocations", &r.hash2_invocations) ||
      !read_u64(*root, "groups_repaired", &r.groups_repaired) ||
      !read_u64(*root, "due_lines", &r.due_lines) ||
      !read_u64(*root, "sdc_lines", &r.sdc_lines) ||
      !read_u64(*root, "failure_intervals", &r.failure_intervals) ||
      !read_metrics(*root, &r.metrics)) {
    return std::nullopt;
  }
  return r;
}

}  // namespace sudoku::exp
