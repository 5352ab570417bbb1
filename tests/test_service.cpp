// Concurrent resilient-memory service (src/service, docs/service.md):
//  * single-client runs are bit-identical to driving the controller
//    directly (the service adds concurrency, never behavior);
//  * a seeded 8-client × 4-bank stress run with background fault injection
//    and async scrubbing loses no writes and tears no lines — every read
//    returns a payload some client committed, intact, and no older than
//    the last write known complete before the read began;
//  * drain() is a fence for the background repair queue;
//  * the load generator's accounting adds up in both arrival modes;
//  * every scheme a bank can hold (SuDoku-Z, Hi-ECC) meets one line
//    data-path contract, and Hi-ECC scrub corrections feed retirement.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baselines/ecck_cache.h"
#include "common/rng.h"
#include "faults/scenario.h"
#include "service/load_gen.h"
#include "service/service.h"
#include "sttram/fault_injector.h"

namespace sudoku::service {
namespace {

BitVec payload(std::uint64_t addr, std::uint64_t seq) {
  BitVec data(512);
  data.set_bits(0, 64, seq);
  std::uint64_t state = (addr << 20) ^ seq;
  for (std::uint32_t i = 64; i < 512; i += 64) {
    data.set_bits(i, 64, splitmix64_next(state));
  }
  return data;
}

bool payload_intact(const BitVec& data, std::uint64_t addr, std::uint64_t* seq_out) {
  const std::uint64_t seq = data.get_bits(0, 64);
  std::uint64_t state = (addr << 20) ^ seq;
  for (std::uint32_t i = 64; i < 512; i += 64) {
    if (data.get_bits(i, 64) != splitmix64_next(state)) return false;
  }
  *seq_out = seq;
  return true;
}

SudokuConfig small_z_config(std::uint64_t num_lines = 4096,
                            std::uint32_t group_size = 64) {
  SudokuConfig cfg;
  cfg.geo.num_lines = num_lines;
  cfg.geo.group_size = group_size;
  cfg.level = SudokuLevel::kZ;
  return cfg;
}

bool parities_consistent(Backend& backend) {
  return dynamic_cast<reliability::SudokuScheme&>(backend)
      .controller()
      .parities_consistent();
}

// ---- single-client determinism ----------------------------------------

// One client on a one-bank service must be observationally bit-identical
// to the raw controller: same statuses, same data, same DUE counts, same
// final parity verdict, under an identical seeded script of writes, reads
// and inject+scrub rounds.
TEST(ServiceDeterminism, SingleClientBitIdenticalToController) {
  const auto cfg = small_z_config();
  SudokuController ctrl(cfg);
  MemoryService svc({.banks = 1, .repair_workers = 1},
                    [&](std::uint32_t) { return make_sudoku_backend(cfg); });

  const auto pattern = [](std::uint64_t line) { return payload(line, 0); };
  ctrl.format(pattern);
  svc.format([&](std::uint32_t, std::uint64_t line) { return pattern(line); });

  ClientStats stats;
  BitVec svc_data;
  Rng script(7);
  const FaultInjector injector(cfg.geo.num_lines, 553, 1e-4);

  for (int step = 0; step < 300; ++step) {
    const std::uint64_t op = script.next_below(4);
    if (op == 0) {
      // write identical fresh data to both sides
      const std::uint64_t line = script.next_below(cfg.geo.num_lines);
      const BitVec data = payload(line, static_cast<std::uint64_t>(step) + 1);
      ctrl.write_data(line, data);
      svc.write(line, data, stats);
    } else if (op <= 2) {
      const std::uint64_t line = script.next_below(cfg.geo.num_lines);
      const auto expect = ctrl.read_data(line);
      const ReadStatus got = svc.read(line, stats, svc_data);
      ASSERT_EQ(static_cast<int>(got), static_cast<int>(expect.status))
          << "step " << step << " line " << line;
      ASSERT_EQ(svc_data, expect.data) << "step " << step << " line " << line;
    } else {
      // identical fault batch into both, then scrub the touched lines in
      // the same (sorted) order
      const FaultBatch batch = injector.sample_interval(script);
      std::vector<std::uint64_t> lines;
      lines.reserve(batch.size());
      for (const auto& [line, bits] : batch) lines.push_back(line);
      std::sort(lines.begin(), lines.end());
      FaultInjector::apply(batch, ctrl.array());
      const std::uint64_t expect_due = ctrl.scrub_lines(lines).due_lines;
      svc.inject_faults(0, batch, /*scrub_async=*/false);
      const std::uint64_t got_due = svc.scrub_units_now(0, lines);
      ASSERT_EQ(got_due, expect_due) << "step " << step;
    }
  }

  // Every line, and the parity invariant, must agree at the end.
  for (std::uint64_t line = 0; line < cfg.geo.num_lines; ++line) {
    const auto expect = ctrl.read_data(line);
    const ReadStatus got = svc.read(line, stats, svc_data);
    ASSERT_EQ(static_cast<int>(got), static_cast<int>(expect.status)) << line;
    ASSERT_EQ(svc_data, expect.data) << line;
  }
  EXPECT_EQ(parities_consistent(svc.backend(0)), ctrl.parities_consistent());
}

// ---- multi-client stress ----------------------------------------------

// 8 clients × 4 banks with background injection and async scrubbing. Each
// address has one writing owner, so per-address sequence numbers bracket
// what a concurrent reader may legally observe:
//   committed-before-read  <=  observed seq  <=  issued-after-read.
// An intact payload checksum additionally proves the line was not torn by
// a racing writer or scrubber.
TEST(ServiceStress, NoLostWritesNoTornLinesUnderConcurrentScrub) {
  constexpr std::uint32_t kClients = 8;
  constexpr std::uint32_t kBanks = 4;
  constexpr std::uint64_t kLinesPerBank = 4096;
  constexpr std::uint64_t kOpsPerClient = 3000;

  const auto cfg = small_z_config(kLinesPerBank);
  MemoryService svc({.banks = kBanks, .repair_workers = 2},
                    [&](std::uint32_t) { return make_sudoku_backend(cfg); });
  const std::uint64_t num_addrs = svc.num_lines();
  svc.format([&](std::uint32_t bank, std::uint64_t line) {
    return payload(line * kBanks + bank, 0);  // addr of (bank, line)
  });

  std::vector<std::atomic<std::uint64_t>> issued(num_addrs);
  std::vector<std::atomic<std::uint64_t>> committed(num_addrs);
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> due_reads{0};

  std::atomic<bool> stop_injector{false};
  std::thread injector_thread([&] {
    Rng rng(99);
    const FaultInjector injector(kLinesPerBank, 553, 5e-6);
    while (!stop_injector.load(std::memory_order_relaxed)) {
      for (std::uint32_t bank = 0; bank < kBanks; ++bank) {
        svc.inject_faults(bank, injector.sample_interval(rng),
                          /*scrub_async=*/true);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<ClientStats> stats(kClients);
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + c);
      BitVec read_buf;
      for (std::uint64_t op = 0; op < kOpsPerClient; ++op) {
        const std::uint64_t addr = rng.next_below(num_addrs);
        const bool owns = addr % kClients == c;
        if (owns && rng.next_bool(0.5)) {
          const std::uint64_t seq = issued[addr].load(std::memory_order_relaxed) + 1;
          issued[addr].store(seq, std::memory_order_release);
          svc.write(addr, payload(addr, seq), stats[c]);
          committed[addr].store(seq, std::memory_order_release);
        } else {
          const std::uint64_t lb = committed[addr].load(std::memory_order_acquire);
          const ReadStatus status = svc.read(addr, stats[c], read_buf);
          const std::uint64_t ub = issued[addr].load(std::memory_order_acquire);
          if (status == ReadStatus::kDue) {
            due_reads.fetch_add(1, std::memory_order_relaxed);
            continue;  // data legitimately lost until the owner rewrites
          }
          std::uint64_t seq = 0;
          if (!payload_intact(read_buf, addr, &seq) || seq < lb || seq > ub) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  stop_injector.store(true, std::memory_order_relaxed);
  injector_thread.join();
  svc.drain();

  EXPECT_EQ(violations.load(), 0u);

  // Quiesced: rewrite any line the injector destroyed (a write over a lost
  // line resynchronises its parity), then the stored state must pass the
  // parity audit and every line must hold its last committed payload.
  ClientStats final_stats;
  BitVec buf;
  for (std::uint64_t addr = 0; addr < num_addrs; ++addr) {
    if (svc.read(addr, final_stats, buf) == ReadStatus::kDue) {
      const std::uint64_t seq = issued[addr].load() + 1;
      issued[addr].store(seq);
      svc.write(addr, payload(addr, seq), final_stats);
      committed[addr].store(seq);
    }
  }
  for (std::uint32_t bank = 0; bank < kBanks; ++bank) {
    svc.scrub_bank_now(bank);
    EXPECT_TRUE(parities_consistent(svc.backend(bank))) << "bank " << bank;
  }
  std::uint64_t mismatches = 0;
  for (std::uint64_t addr = 0; addr < num_addrs; ++addr) {
    const ReadStatus status = svc.read(addr, final_stats, buf);
    ASSERT_NE(static_cast<int>(status), static_cast<int>(ReadStatus::kDue));
    std::uint64_t seq = 0;
    if (!payload_intact(buf, addr, &seq) || seq != committed[addr].load()) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);

  // The lock-free fast path must actually have carried traffic.
  std::uint64_t fast = 0;
  for (const auto& s : stats) {
    fast += s.registry().find_counter("service.read.fast")->value();
  }
  EXPECT_GT(fast, 0u);
}

// ---- graceful degradation under permanent faults ----------------------

// A mixed permanent/intermittent/transient scenario drives two banks while
// clients hammer them, with repeat-offender retirement enabled. The
// service must (a) lose no committed writes, (b) converge — once traffic
// stops and scrubs observe the stuck cells a few times — to a stable
// retired-line set, retiring each line exactly once, and (c) serve every
// line (spare-backed or not) with its last committed payload: degradation
// without silent corruption.
TEST(ServiceDegradation, RetiresRepeatOffendersWithoutLosingData) {
  constexpr std::uint32_t kClients = 6;
  constexpr std::uint32_t kBanks = 2;
  constexpr std::uint64_t kLinesPerBank = 1024;
  constexpr std::uint64_t kOpsPerClient = 1500;
  constexpr std::uint32_t kStrikes = 3;

  SudokuConfig cfg;
  cfg.geo.num_lines = kLinesPerBank;
  cfg.geo.group_size = 32;
  cfg.level = SudokuLevel::kZ;
  MemoryService svc({.banks = kBanks,
                     .repair_workers = 2,
                     .retire_strikes = kStrikes,
                     .spare_lines_per_bank = 64},
                    [&](std::uint32_t) { return make_sudoku_backend(cfg); });
  const std::uint64_t num_addrs = svc.num_lines();
  svc.format([&](std::uint32_t bank, std::uint64_t line) {
    return payload(line * kBanks + bank, 0);
  });

  // One scenario per bank (distinct seeds): stuck-at + intermittent +
  // cluster + iid, the "mixed" preset, against this backend's geometry.
  const faults::Geometry geo{kLinesPerBank, 553};
  std::vector<faults::FaultScenario> scenarios;
  for (std::uint32_t bank = 0; bank < kBanks; ++bank) {
    scenarios.emplace_back(faults::ScenarioSpec::builtin("mixed"), geo,
                           7000 + bank);
  }

  std::vector<std::atomic<std::uint64_t>> issued(num_addrs);
  std::vector<std::atomic<std::uint64_t>> committed(num_addrs);
  std::atomic<std::uint64_t> violations{0};

  // The fault dose follows client progress, not the wall clock: scenario
  // round t is injected once the clients have completed t * kOpsPerRound
  // operations, so the injection stays concurrent with the clients while
  // the scenario timeline is the same on every host (a sanitizer build
  // slows the clients severalfold, which under a fixed-period injector
  // pushed t deep into the intermittent and wear-out phases).
  constexpr std::uint64_t kRounds = 8;
  constexpr std::uint64_t kOpsPerRound = kClients * kOpsPerClient / kRounds;
  std::atomic<std::uint64_t> ops_done{0};
  std::thread injector_thread([&] {
    for (std::uint64_t t = 0; t < kRounds; ++t) {
      while (ops_done.load(std::memory_order_relaxed) < t * kOpsPerRound) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      for (std::uint32_t bank = 0; bank < kBanks; ++bank) {
        svc.assert_stuck(bank, scenarios[bank].stuck(t).cells(),
                         /*scrub_async=*/true);
        svc.inject_faults(bank, scenarios[bank].transient(t),
                          /*scrub_async=*/true);
      }
    }
  });

  std::vector<ClientStats> stats(kClients);
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(4000 + c);
      BitVec read_buf;
      for (std::uint64_t op = 0; op < kOpsPerClient;
           ++op, ops_done.fetch_add(1, std::memory_order_relaxed)) {
        const std::uint64_t addr = rng.next_below(num_addrs);
        const bool owns = addr % kClients == c;
        if (owns && rng.next_bool(0.5)) {
          const std::uint64_t seq = issued[addr].load(std::memory_order_relaxed) + 1;
          issued[addr].store(seq, std::memory_order_release);
          svc.write(addr, payload(addr, seq), stats[c]);
          committed[addr].store(seq, std::memory_order_release);
        } else {
          const std::uint64_t lb = committed[addr].load(std::memory_order_acquire);
          const ReadStatus status = svc.read(addr, stats[c], read_buf);
          const std::uint64_t ub = issued[addr].load(std::memory_order_acquire);
          if (status == ReadStatus::kDue) continue;  // legitimately lost
          std::uint64_t seq = 0;
          if (!payload_intact(read_buf, addr, &seq) || seq < lb || seq > ub) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  injector_thread.join();
  svc.drain();
  EXPECT_EQ(violations.load(), 0u);

  // Heal anything the fault storm destroyed outright (an owner rewrite is
  // the application-level recovery for a DUE), then converge: re-assert
  // the permanent cells and scrub until the retired set stops moving. The
  // stuck population is constant, so three consecutive dirty sweeps retire
  // every line whose stuck cells disagree with its payload, and nothing
  // else accumulates strikes once transients stop.
  ClientStats final_stats;
  BitVec buf;
  for (std::uint64_t addr = 0; addr < num_addrs; ++addr) {
    if (svc.read(addr, final_stats, buf) == ReadStatus::kDue) {
      const std::uint64_t seq = issued[addr].load() + 1;
      issued[addr].store(seq);
      svc.write(addr, payload(addr, seq), final_stats);
      committed[addr].store(seq);
    }
  }
  const auto converge_round = [&] {
    for (std::uint32_t bank = 0; bank < kBanks; ++bank) {
      svc.assert_stuck(bank, scenarios[bank].stuck(0).cells(),
                       /*scrub_async=*/false);
      svc.scrub_bank_now(bank);
    }
  };
  for (std::uint32_t round = 0; round < kStrikes + 1; ++round) converge_round();
  const DegradationReport before = svc.degradation_report();
  for (std::uint32_t round = 0; round < kStrikes + 1; ++round) converge_round();
  const DegradationReport after = svc.degradation_report();

  // Stable set, some lines actually retired, none spilled past the pool.
  EXPECT_GT(after.retired_mapped, 0u);
  EXPECT_EQ(after.retired_unmapped, 0u);
  ASSERT_EQ(before.banks.size(), after.banks.size());
  for (std::uint32_t bank = 0; bank < kBanks; ++bank) {
    EXPECT_EQ(before.banks[bank].retired_lines, after.banks[bank].retired_lines)
        << "retired set must be stable, bank " << bank;
  }
  EXPECT_DOUBLE_EQ(after.healthy_fraction(), 1.0);

  // Retirement happened exactly once per line: the counter agrees with the
  // set cardinality.
  obs::MetricsRegistry merged;
  svc.merge_metrics_into(merged);
  EXPECT_EQ(merged.find_counter("service.retired_lines")->value(),
            after.retired_mapped + after.retired_unmapped);
  EXPECT_EQ(merged.find_counter("service.retire.pool_exhausted")->value(), 0u);

  // Zero SDC: every address — spare-served or in place — still returns its
  // last committed payload.
  std::uint64_t mismatches = 0;
  ClientStats audit;
  for (std::uint64_t addr = 0; addr < num_addrs; ++addr) {
    const ReadStatus status = svc.read(addr, audit, buf);
    ASSERT_NE(static_cast<int>(status), static_cast<int>(ReadStatus::kDue))
        << "addr " << addr;
    std::uint64_t seq = 0;
    if (!payload_intact(buf, addr, &seq) || seq != committed[addr].load()) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The audit walked every retired line through the spare path.
  EXPECT_EQ(audit.registry().find_counter("service.read.retired")->value(),
            after.retired_mapped);
}

// ---- repair queue -----------------------------------------------------

TEST(ServiceRepairQueue, DrainIsAFenceForQueuedScrubs) {
  const auto cfg = small_z_config();
  MemoryService svc({.banks = 2, .repair_workers = 2},
                    [&](std::uint32_t) { return make_sudoku_backend(cfg); });
  svc.format_zero();

  constexpr int kSweeps = 24;
  for (int i = 0; i < kSweeps; ++i) svc.scrub_bank_async(i % 2);
  svc.drain();
  EXPECT_EQ(svc.queue_depth(), 0u);
  EXPECT_GE(svc.queue_depth_max(), 1u);

  obs::MetricsRegistry merged;
  svc.merge_metrics_into(merged);
  const obs::Counter* tasks = merged.find_counter("service.repair.tasks");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->value(), static_cast<std::uint64_t>(kSweeps));
  const obs::Counter* units = merged.find_counter("service.repair.units_scrubbed");
  ASSERT_NE(units, nullptr);
  EXPECT_EQ(units->value(), kSweeps * cfg.geo.num_lines);
}

// ---- load generator ---------------------------------------------------

TEST(LoadGen, ClosedLoopAccountingAddsUp) {
  const auto cfg = small_z_config();
  MemoryService svc({.banks = 2, .repair_workers = 1},
                    [&](std::uint32_t) { return make_sudoku_backend(cfg); });
  svc.format_zero();

  LoadConfig lcfg;
  lcfg.clients = 3;
  lcfg.ops_per_client = 500;  // op-bounded: deterministic op count
  lcfg.duration_ms = 10000;   // irrelevant once op-bounded
  lcfg.seed = 42;
  const LoadReport rep = run_load(svc, lcfg);

  EXPECT_EQ(rep.ops, 3u * 500u);
  EXPECT_EQ(rep.reads + rep.writes, rep.ops);
  EXPECT_GT(rep.reads, 0u);
  EXPECT_GT(rep.writes, 0u);
  EXPECT_GT(rep.qps, 0.0);
  EXPECT_EQ(rep.read_latency_ns.count, rep.reads);
  EXPECT_GT(rep.read_latency_ns.p99, 0.0);
  EXPECT_GE(rep.read_latency_ns.p999, rep.read_latency_ns.p50);

  // Client counters made it into the merged registry.
  const obs::Counter* writes = rep.metrics.find_counter("service.write.count");
  ASSERT_NE(writes, nullptr);
  EXPECT_EQ(writes->value(), rep.writes);
  const obs::Counter* fast = rep.metrics.find_counter("service.read.fast");
  ASSERT_NE(fast, nullptr);
  EXPECT_GT(fast->value(), 0u);
}

TEST(LoadGen, OpenLoopWithInjectionRunsAndDrains) {
  const auto cfg = small_z_config();
  MemoryService svc({.banks = 2, .repair_workers = 1},
                    [&](std::uint32_t) { return make_sudoku_backend(cfg); });
  svc.format_zero();

  LoadConfig lcfg;
  lcfg.clients = 2;
  lcfg.open_loop = true;
  lcfg.open_loop_rate = 50000.0;
  lcfg.duration_ms = 50;
  lcfg.ber_per_interval = 1e-5;
  lcfg.inject_interval_ms = 5;
  lcfg.seed = 43;
  const LoadReport rep = run_load(svc, lcfg);

  EXPECT_GT(rep.ops, 0u);
  EXPECT_EQ(rep.reads + rep.writes, rep.ops);
  EXPECT_EQ(svc.queue_depth(), 0u);  // run_load drains before reporting
  const obs::Counter* tasks = rep.metrics.find_counter("service.repair.tasks");
  ASSERT_NE(tasks, nullptr);
  EXPECT_GT(tasks->value(), 0u);  // injection queued background scrubs
}

// ---- one data-path contract for every scheme that has one ------------

// The schemes a bank can hold, built through the service's own factories.
// `fixable` is a fault pattern on one unit that the inner code corrects
// inline; `lost` is one that no repair survives when a quarter of the
// units carry it at once.
struct DataPathCase {
  const char* name;
  std::function<std::unique_ptr<Backend>()> make;
  std::uint64_t lines_per_unit;
  std::vector<std::uint32_t> fixable;
  std::vector<std::uint32_t> lost;
};

const DataPathCase kDataPathCases[] = {
    {"SudokuZ", [] { return make_sudoku_backend(small_z_config(256, 16)); }, 1,
     {7}, {1, 2, 3, 200, 201, 202, 400, 401}},
    {"HiEcc", [] { return make_hiecc_backend(256); }, 16,
     {1, 100, 515, 3000, 7000, 8200}, {1, 2, 3, 600, 601, 602, 5000, 5001}},
};

void PrintTo(const DataPathCase& c, std::ostream* os) { *os << c.name; }

class SchemeDataPath : public ::testing::TestWithParam<DataPathCase> {
 protected:
  void SetUp() override {
    scheme_ = GetParam().make();
    scheme_->format_lines([](std::uint64_t line) { return payload(line, 0); });
  }

  // Faults `lost` into units [0, num_units/4) and returns those units.
  std::vector<std::uint64_t> lose_first_quarter() {
    FaultBatch batch;
    std::vector<std::uint64_t> units;
    for (std::uint64_t u = 0; u < scheme_->num_units() / 4; ++u) {
      batch[u] = GetParam().lost;
      units.push_back(u);
    }
    scheme_->inject(batch);
    return units;
  }

  std::unique_ptr<Backend> scheme_;
};

TEST_P(SchemeDataPath, FormatThenReadRoundTrips) {
  for (std::uint64_t line = 0; line < scheme_->num_data_lines(); ++line) {
    const ReadReply reply = scheme_->read_line_data(line);
    EXPECT_EQ(reply.status, ReadStatus::kClean) << line;
    EXPECT_EQ(reply.data, payload(line, 0)) << line;
  }
}

TEST_P(SchemeDataPath, UnitOfLineFollowsTheGeometry) {
  const Backend& s = *scheme_;
  EXPECT_EQ(s.num_data_lines(), 256u);
  EXPECT_EQ(s.num_data_lines() / s.num_units(), GetParam().lines_per_unit);
  EXPECT_EQ(s.lines_per_unit(), GetParam().lines_per_unit);
  for (std::uint64_t line = 0; line < s.num_data_lines(); ++line) {
    EXPECT_EQ(s.unit_of_line(line), line / GetParam().lines_per_unit) << line;
  }
}

TEST_P(SchemeDataPath, ProbeAgreesWithReadAndRefusesFaultyUnits) {
  BitVec scratch, data;
  for (std::uint64_t line = 0; line < scheme_->num_data_lines(); ++line) {
    ASSERT_TRUE(scheme_->probe_clean_line(line, scratch, data)) << line;
    EXPECT_EQ(data, scheme_->read_line_data(line).data) << line;
  }
  constexpr std::uint64_t kUnit = 2;
  scheme_->inject({{kUnit, GetParam().fixable}});
  for (std::uint64_t line = 0; line < scheme_->num_data_lines(); ++line) {
    EXPECT_EQ(scheme_->probe_clean_line(line, scratch, data),
              scheme_->unit_of_line(line) != kUnit) << line;
  }
}

TEST_P(SchemeDataPath, WriteLeavesEveryOtherLineIntact) {
  const std::uint64_t target = GetParam().lines_per_unit + 1;
  scheme_->write_line_data(target, payload(target, 5));
  for (std::uint64_t line = 0; line < scheme_->num_data_lines(); ++line) {
    const ReadReply reply = scheme_->read_line_data(line);
    EXPECT_EQ(reply.status, ReadStatus::kClean) << line;
    EXPECT_EQ(reply.data, payload(line, line == target ? 5 : 0)) << line;
  }
}

TEST_P(SchemeDataPath, CorrectsInlineThenScrubReportsDueUnits) {
  constexpr std::uint64_t kUnit = 2;
  const std::uint64_t line = kUnit * GetParam().lines_per_unit;
  scheme_->inject({{kUnit, GetParam().fixable}});
  const ReadReply fixed = scheme_->read_line_data(line);
  EXPECT_EQ(fixed.status, ReadStatus::kCorrected);
  EXPECT_EQ(fixed.data, payload(line, 0));
  // The read wrote the correction back.
  EXPECT_EQ(scheme_->read_line_data(line).status, ReadStatus::kClean);

  const std::vector<std::uint64_t> lost = lose_first_quarter();
  const reliability::UnitScrubStats stats = scheme_->scrub_units(lost);
  std::vector<std::uint64_t> due = stats.due_unit_ids;
  std::sort(due.begin(), due.end());
  EXPECT_EQ(due, lost);
  EXPECT_EQ(stats.due_units, lost.size());
  EXPECT_EQ(scheme_->read_line_data(0).status, ReadStatus::kDue);
}

// A write into a unit that is already lost must not turn its other lines
// into clean-but-wrong data. Hi-ECC's region read-modify-write re-encodes
// the parity over the corrupted region, which made its sibling lines read
// back clean (locked read and probe alike) with the wrong payload.
TEST_P(SchemeDataPath, WriteIntoALostUnitNeverServesWrongData) {
  const std::vector<std::uint64_t> lost = lose_first_quarter();
  const std::uint64_t lost_lines = lost.size() * GetParam().lines_per_unit;
  constexpr std::uint64_t kTarget = 1;
  scheme_->write_line_data(kTarget, payload(kTarget, 5));

  BitVec scratch, data;
  for (std::uint64_t line = 0; line < lost_lines; ++line) {
    const ReadReply reply = scheme_->read_line_data(line);
    if (line == kTarget) {
      EXPECT_EQ(reply.status, ReadStatus::kClean);
      EXPECT_EQ(reply.data, payload(kTarget, 5));
      continue;
    }
    EXPECT_EQ(reply.status, ReadStatus::kDue) << line;
    EXPECT_FALSE(scheme_->probe_clean_line(line, scratch, data)) << line;
  }
  // Writing a lost line makes it live again.
  scheme_->write_line_data(0, payload(0, 9));
  const ReadReply rewritten = scheme_->read_line_data(0);
  EXPECT_EQ(rewritten.status, ReadStatus::kClean);
  EXPECT_EQ(rewritten.data, payload(0, 9));
  ASSERT_TRUE(scheme_->probe_clean_line(0, scratch, data));
  EXPECT_EQ(data, payload(0, 9));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SchemeDataPath, ::testing::ValuesIn(kDataPathCases),
    [](const ::testing::TestParamInfo<DataPathCase>& info) {
      return std::string(info.param.name);
    });

TEST(SchemeWithoutDataPath, EccKThrowsLogicError) {
  baselines::EccKCache ecc(64, 4);
  BitVec scratch, data;
  EXPECT_THROW(ecc.num_data_lines(), std::logic_error);
  EXPECT_THROW(ecc.read_line_data(0), std::logic_error);
  EXPECT_THROW(ecc.write_line_data(0, BitVec(512)), std::logic_error);
  EXPECT_THROW(ecc.probe_clean_line(0, scratch, data), std::logic_error);
}

// Hi-ECC scrub corrections count as retirement strikes: a stuck cell makes
// its region dirty on every scrub, so two scrubs with no reads in between
// retire all 16 lines of the region.
TEST(ServiceDegradation, HiEccScrubCorrectionsRetireAStuckRegion) {
  MemoryService svc({.banks = 1, .repair_workers = 1, .retire_strikes = 2},
                    [](std::uint32_t) { return make_hiecc_backend(256); });
  svc.format([](std::uint32_t, std::uint64_t line) { return payload(line, 0); });
  constexpr std::uint64_t kRegion = 3;
  constexpr std::uint32_t kBit = 100;
  const faults::StuckCell cell{kRegion, kBit,
                               !svc.backend(0).array().test(kRegion, kBit)};
  const std::uint64_t units[] = {kRegion};
  for (int round = 0; round < 2; ++round) {
    svc.assert_stuck(0, {&cell, 1}, /*scrub_async=*/false);
    EXPECT_EQ(svc.scrub_units_now(0, units), 0u);
  }

  std::vector<std::uint64_t> region_lines(16);
  for (std::uint64_t k = 0; k < 16; ++k) region_lines[k] = kRegion * 16 + k;
  const DegradationReport report = svc.degradation_report();
  EXPECT_EQ(report.banks[0].retired_lines, region_lines);
  EXPECT_EQ(report.retired_mapped, 16u);
  ClientStats stats;
  BitVec buf;
  for (const auto line : region_lines) {
    EXPECT_EQ(svc.read(line, stats, buf), ReadStatus::kClean);
    EXPECT_EQ(buf, payload(line, 0)) << line;
  }
}

}  // namespace
}  // namespace sudoku::service
