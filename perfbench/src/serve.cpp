// Serve workloads: closed-loop clients against a MemoryService, with raw
// per-op latency samples taken around MemoryService::read/write and a fault
// dose keyed to client 0's op count (never to wall-clock time), so every
// run of a seed injects the same faults in the same order.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "service/backend.h"
#include "service/service.h"
#include "sttram/fault_injector.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sudoku::BitVec;
using sudoku::Rng;
using sudoku::service::ClientStats;
using sudoku::service::MemoryService;
using sudoku::service::ReadStatus;

struct ServeSpec {
  const char* name;
  bool hiecc;
  std::uint32_t banks;
  std::uint64_t lines_per_bank;
  std::uint32_t clients;
  // Ops per client per round: enough that each round's p99 has well over
  // ten samples beyond it.
  std::uint64_t ops_per_client;
  std::uint64_t inject_every;  // client-0 ops between fault batches
  double ber;                  // per fault batch, per bank
};

constexpr double kWriteFrac = 0.3;
constexpr double kHotFrac = 0.8;       // of accesses ...
constexpr double kHotLinesFrac = 0.1;  // ... go to this leading share of lines
constexpr std::uint64_t kFaultStream = 0xFA017ull;

// serve_z: the paper's SuDoku-Z behind the service at 3 clients (one core
// left for the repair worker). serve_hiecc: the Hi-ECC region codec at one
// client — two clients queue on the region lock and the tail stops being a
// property of the codec.
const ServeSpec kServeSpecs[] = {
    {"serve_z", false, 8, 16384, 3, 20000, 2000, 1e-5},
    {"serve_hiecc", true, 2, 2048, 1, 1000, 250, 1e-5},
};

const ServeSpec& find_spec(const std::string& name) {
  for (const ServeSpec& s : kServeSpecs) {
    if (name == s.name) return s;
  }
  std::abort();  // main() validates workload names first
}

std::unique_ptr<MemoryService> build_service(const ServeSpec& spec) {
  sudoku::service::ServiceConfig cfg;
  cfg.banks = spec.banks;
  cfg.repair_workers = 1;
  auto svc = std::make_unique<MemoryService>(
      cfg, [&spec](std::uint32_t) -> std::unique_ptr<sudoku::service::Backend> {
        if (spec.hiecc) return sudoku::service::make_hiecc_backend(spec.lines_per_bank, 6);
        sudoku::SudokuConfig sc;
        sc.geo.num_lines = spec.lines_per_bank;
        sc.geo.group_size = 64;
        sc.level = sudoku::SudokuLevel::kZ;
        return sudoku::service::make_sudoku_backend(sc);
      });
  const std::uint32_t banks = spec.banks;
  svc->format([banks](std::uint32_t bank, std::uint64_t line) {
    return make_payload(line * banks + bank, 0);
  });
  return svc;
}

enum class SpanKind : std::uint8_t { kReadFast, kReadLocked, kWrite };

// One traced op: how long it took and which path served it.
struct Span {
  double dur_ns;
  SpanKind kind;
};

struct ClientOut {
  std::vector<double> read_ns;
  std::vector<double> write_ns;
  std::vector<Span> spans;  // traced rounds only
  std::uint64_t due = 0;
  std::uint64_t bad_payload = 0;
  Clock::time_point end;
};

// One fixed-size round, summarised from its raw per-op samples (merged
// over clients) as soon as it ends, so a long run holds no sample history.
struct Round {
  double qps = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t reads = 0;
  std::uint64_t reads_beyond_p99 = 0;
  std::uint64_t fast_reads = 0;  // from the ClientStats counters
  std::uint64_t locked_reads = 0;
  double op_p50_ns = 0.0, op_p99_ns = 0.0;
  double read_p50_ns = 0.0, read_p99_ns = 0.0, read_p999_ns = 0.0;
  double write_p50_ns = 0.0, write_p99_ns = 0.0;
  double fast_read_p50_ns = 0.0, locked_read_p50_ns = 0.0;  // traced only
};

std::uint64_t counter_value(const ClientStats& stats, const char* name) {
  const auto* c = stats.registry().find_counter(name);
  return c ? c->value() : 0;
}

std::uint64_t locked_reads(const ClientStats& stats) {
  return counter_value(stats, "service.read.clean") +
         counter_value(stats, "service.read.corrected") +
         counter_value(stats, "service.read.repaired") +
         counter_value(stats, "service.read.due");
}

class ServeBench {
 public:
  ServeBench(const ServeSpec& spec, std::uint64_t seed,
             std::unique_ptr<MemoryService> svc)
      : spec_(spec),
        seed_(seed),
        svc_(std::move(svc)),
        stats_(spec.clients),
        fault_rng_(Rng::derive_stream_seed(seed, kFaultStream)),
        hot_lines_(static_cast<std::uint64_t>(kHotLinesFrac *
                                              static_cast<double>(svc_->num_lines()))) {
    for (std::uint32_t b = 0; b < svc_->banks(); ++b) {
      auto& be = svc_->backend(b);
      injectors_.emplace_back(be.num_units(), be.bits_per_unit(), spec.ber);
    }
  }

  MemoryService& service() { return *svc_; }
  std::uint64_t faults_injected() const { return faults_injected_; }
  std::uint64_t batches_injected() const { return batches_; }

  // Clients read the address stream of (stream, client), so a 1-client
  // round on stream r replays exactly client 0's addresses of a 3-client
  // round on stream r.
  Round run_round(std::uint32_t clients, bool traced, std::uint64_t stream) {
    std::vector<ClientOut> outs(clients);
    std::vector<std::uint64_t> fast0(clients), locked0(clients);
    for (std::uint32_t c = 0; c < clients; ++c) {
      fast0[c] = counter_value(stats_[c], "service.read.fast");
      locked0[c] = locked_reads(stats_[c]);
    }
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        client_loop(c, stream, traced, outs[c]);
      });
    }
    const auto t0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    svc_->drain();  // rounds start with an empty repair queue

    Round r;
    Clock::time_point end = t0;
    std::vector<double> read_ns, write_ns, fast_ns, locked_ns;
    for (std::uint32_t c = 0; c < clients; ++c) {
      ClientOut& o = outs[c];
      end = std::max(end, o.end);
      read_ns.insert(read_ns.end(), o.read_ns.begin(), o.read_ns.end());
      write_ns.insert(write_ns.end(), o.write_ns.begin(), o.write_ns.end());
      for (const Span& sp : o.spans) {
        if (sp.kind == SpanKind::kReadFast) fast_ns.push_back(sp.dur_ns);
        if (sp.kind == SpanKind::kReadLocked) locked_ns.push_back(sp.dur_ns);
      }
      r.failed += o.due + o.bad_payload;
      r.fast_reads += counter_value(stats_[c], "service.read.fast") - fast0[c];
      r.locked_reads += locked_reads(stats_[c]) - locked0[c];
    }
    r.reads = read_ns.size();
    r.ops = read_ns.size() + write_ns.size();
    r.qps = static_cast<double>(r.ops) / seconds_between(t0, end);
    r.read_p50_ns = quantile_sorted_inplace(read_ns, 0.50);
    r.read_p99_ns = quantile_sorted_inplace(read_ns, 0.99);
    r.read_p999_ns = quantile_sorted_inplace(read_ns, 0.999);
    r.reads_beyond_p99 = count_above(read_ns, r.read_p99_ns);
    r.write_p50_ns = quantile_sorted_inplace(write_ns, 0.50);
    r.write_p99_ns = quantile_sorted_inplace(write_ns, 0.99);
    r.fast_read_p50_ns = quantile_sorted_inplace(fast_ns, 0.50);
    r.locked_read_p50_ns = quantile_sorted_inplace(locked_ns, 0.50);
    std::vector<double>& all = read_ns;
    all.insert(all.end(), write_ns.begin(), write_ns.end());
    r.op_p50_ns = quantile_sorted_inplace(all, 0.50);
    r.op_p99_ns = quantile_sorted_inplace(all, 0.99);
    return r;
  }

  // Drain, then read every line back: each must be its formatted pattern
  // or a well-formed payload written for that address.
  Tally audit() {
    svc_->drain();
    Tally t;
    BitVec buf;
    std::uint64_t bad = 0;
    for (std::uint64_t addr = 0; addr < svc_->num_lines(); ++addr) {
      const ReadStatus st = svc_->read(addr, stats_[0], buf);
      if (st == ReadStatus::kDue || !payload_ok(addr, buf)) ++bad;
    }
    t.add(svc_->num_lines(), bad);
    return t;
  }

  // Milliseconds for the repair worker to retire one fault batch per bank.
  double timed_full_dose_drain_ms() {
    std::vector<sudoku::FaultBatch> batches;
    for (std::uint32_t b = 0; b < svc_->banks(); ++b) {
      batches.push_back(injectors_[b].sample_interval(fault_rng_));
      faults_injected_ += sudoku::FaultInjector::count(batches.back());
      ++batches_;
    }
    const auto t0 = Clock::now();
    for (std::uint32_t b = 0; b < svc_->banks(); ++b) {
      svc_->inject_faults(b, batches[b], /*scrub_async=*/true);
    }
    svc_->drain();
    return seconds_between(t0, Clock::now()) * 1e3;
  }

 private:
  void inject_next() {
    const std::uint32_t bank = next_bank_++ % svc_->banks();
    const auto batch = injectors_[bank].sample_interval(fault_rng_);
    faults_injected_ += sudoku::FaultInjector::count(batch);
    ++batches_;
    svc_->inject_faults(bank, batch, /*scrub_async=*/true);
  }

  void client_loop(std::uint32_t c, std::uint64_t stream, bool traced, ClientOut& out) {
    Rng rng(Rng::derive_stream_seed(seed_, stream * 64 + c));
    ClientStats& stats = stats_[c];
    const sudoku::obs::Counter* fast = stats.registry().counter("service.read.fast");
    const std::uint64_t n = svc_->num_lines();
    BitVec wdata(512), rbuf;
    out.read_ns.reserve(spec_.ops_per_client);
    out.write_ns.reserve(spec_.ops_per_client);
    if (traced) out.spans.reserve(spec_.ops_per_client);
    for (std::uint64_t op = 0; op < spec_.ops_per_client; ++op) {
      if (c == 0 && op % spec_.inject_every == 0) inject_next();
      const std::uint64_t addr =
          rng.next_bool(kHotFrac) ? rng.next_below(hot_lines_) : rng.next_below(n);
      if (rng.next_bool(kWriteFrac)) {
        fill_payload(wdata, addr, ((stream + 1) << 40) | (std::uint64_t{c} << 32) | op);
        const auto a = Clock::now();
        svc_->write(addr, wdata, stats);
        const auto b = Clock::now();
        out.write_ns.push_back(ns_between(a, b));
        if (traced) out.spans.push_back({ns_between(a, b), SpanKind::kWrite});
      } else {
        const std::uint64_t fast_before = traced ? fast->value() : 0;
        const auto a = Clock::now();
        const ReadStatus st = svc_->read(addr, stats, rbuf);
        const auto b = Clock::now();
        out.read_ns.push_back(ns_between(a, b));
        if (traced) {
          out.spans.push_back({ns_between(a, b), fast->value() != fast_before
                                                     ? SpanKind::kReadFast
                                                     : SpanKind::kReadLocked});
        }
        if (st == ReadStatus::kDue) {
          ++out.due;
        } else if (!payload_ok(addr, rbuf)) {
          ++out.bad_payload;
        }
      }
    }
    out.end = Clock::now();
  }

  const ServeSpec& spec_;
  std::uint64_t seed_;
  std::unique_ptr<MemoryService> svc_;
  std::vector<ClientStats> stats_;
  Rng fault_rng_;  // used by client 0 only while a round runs
  std::vector<sudoku::FaultInjector> injectors_;
  std::uint32_t next_bank_ = 0;
  std::uint64_t faults_injected_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t hot_lines_;
};

double median_of(const std::vector<Round>& rounds, double Round::*field) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(r.*field);
  return median(std::move(v));
}

// One round that fills caches and faults in pages; audited, not timed.
void warm_up(ServeBench& bench, std::uint32_t clients, std::uint64_t& stream, Result& out) {
  const Round warm = bench.run_round(clients, false, stream++);
  out.tally.add(warm.ops, warm.failed);
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  for (const ServeSpec& s : kServeSpecs) {
    if (name == s.name) return true;
  }
  return false;
}

void run_serve(const std::string& workload, std::uint64_t seed, double seconds,
               Result& out) {
  const ServeSpec& spec = find_spec(workload);
  const auto t0 = Clock::now();
  ServeBench bench(spec, seed, build_service(spec));
  double setup_spent = seconds_between(t0, Clock::now());
  std::vector<double> setups{setup_spent};
  std::uint64_t stream = 0;
  warm_up(bench, spec.clients, stream, out);

  std::vector<Round> rounds;
  const auto start = Clock::now();
  while (rounds.size() < 3 || seconds_between(start, Clock::now()) < seconds) {
    rounds.push_back(bench.run_round(spec.clients, false, stream++));
    out.tally.add(rounds.back().ops, rounds.back().failed);
    sample_setup(setups, setup_spent, kSetupShare * seconds_between(start, Clock::now()),
                 [&spec] { return build_service(spec); });
  }
  const Tally audit = bench.audit();
  out.tally += audit;
  if (audit.failed != 0) {
    out.fail(std::to_string(audit.failed) + " lines failed the read-back audit");
  }

  auto med = [&rounds](double Round::*field) { return median_of(rounds, field); };
  const double qps = med(&Round::qps);
  std::uint64_t beyond_p99 = 0, reads = 0;
  for (const Round& r : rounds) {
    beyond_p99 += r.reads_beyond_p99;
    reads += r.reads;
  }

  out.metric("throughput_per_s", qps, "1/s");
  out.metric("p50_us", med(&Round::op_p50_ns) / 1e3, "us");
  out.metric("tail_us", med(&Round::op_p99_ns) / 1e3, "us");  // >= 10 samples beyond per round
  out.metric("setup_s", median(setups), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MiB");

  note("%s: %zu rounds x %u clients x %llu ops, %zu set-ups, %llu fault batches (%llu faults)",
       spec.name, rounds.size(), spec.clients,
       static_cast<unsigned long long>(spec.ops_per_client), setups.size(),
       static_cast<unsigned long long>(bench.batches_injected()),
       static_cast<unsigned long long>(bench.faults_injected()));
  note("ops_per_s=%.1f 1/s  read_p50_us=%.4f  read_p99_us=%.4f  write_p50_us=%.4f  "
       "write_p99_us=%.4f  read_p999_us=%.4f",
       qps, med(&Round::read_p50_ns) / 1e3, med(&Round::read_p99_ns) / 1e3,
       med(&Round::write_p50_ns) / 1e3, med(&Round::write_p99_ns) / 1e3,
       med(&Round::read_p999_ns) / 1e3);
  note("read samples %llu, %llu beyond their round's p99; error_rate=%.3g (%llu/%llu)",
       static_cast<unsigned long long>(reads),
       static_cast<unsigned long long>(beyond_p99), out.tally.error_rate(),
       static_cast<unsigned long long>(out.tally.failed),
       static_cast<unsigned long long>(out.tally.attempted));
}

double serve_trace_ratio(const std::string& workload, std::uint64_t seed,
                         double seconds, Result& out) {
  const ServeSpec& spec = find_spec(workload);
  ServeBench bench(spec, seed, build_service(spec));
  std::uint64_t stream = 0;
  warm_up(bench, spec.clients, stream, out);
  std::vector<double> plain, traced;
  const auto start = Clock::now();
  while (plain.size() < 3 || seconds_between(start, Clock::now()) < seconds) {
    for (bool t : {false, true}) {
      const Round r = bench.run_round(spec.clients, t, stream++);
      out.tally.add(r.ops, r.failed);
      (t ? traced : plain).push_back(r.qps);
    }
  }
  const Tally audit = bench.audit();
  out.tally += audit;
  if (audit.failed != 0) out.fail("read-back audit failed in the traced run");
  return median(traced) / median(plain);
}

void service_layer(std::uint64_t seed, double seconds, Result& out) {
  const ServeSpec& spec = find_spec("serve_z");
  ServeBench bench(spec, seed, build_service(spec));
  std::uint64_t stream = 0;
  warm_up(bench, spec.clients, stream, out);

  // Alternate 1-client and 3-client rounds on the same address stream so
  // whole-run drift cancels in the scaling ratio.
  std::vector<Round> one, many;
  const auto start = Clock::now();
  while (one.size() < 3 || seconds_between(start, Clock::now()) < 0.8 * seconds) {
    one.push_back(bench.run_round(1, true, stream));
    many.push_back(bench.run_round(spec.clients, true, stream));
    ++stream;
    out.tally.add(one.back().ops + many.back().ops,
                  one.back().failed + many.back().failed);
  }
  std::uint64_t fast = 0, locked = 0;
  for (const Round& r : many) {
    fast += r.fast_reads;
    locked += r.locked_reads;
  }
  const double reads = static_cast<double>(fast + locked);
  std::vector<double> drains;
  for (int i = 0; i < 5; ++i) drains.push_back(bench.timed_full_dose_drain_ms());

  out.metric("service.fast_path_frac", static_cast<double>(fast) / reads, "ratio");
  out.metric("service.locked_read_frac", static_cast<double>(locked) / reads, "ratio");
  out.metric("service.read_ns", median_of(many, &Round::read_p50_ns), "ns");
  out.metric("service.read_1c_ns", median_of(one, &Round::read_p50_ns), "ns");
  out.metric("service.fast_read_ns", median_of(many, &Round::fast_read_p50_ns), "ns");
  out.metric("service.locked_read_ns", median_of(many, &Round::locked_read_p50_ns), "ns");
  out.metric("service.read_p999_us", median_of(many, &Round::read_p999_ns) / 1e3, "us");
  out.metric("service.write_ns", median_of(many, &Round::write_p50_ns), "ns");
  out.metric("service.scaling_x", median_of(many, &Round::qps) / median_of(one, &Round::qps), "ratio");
  out.metric("service.queue_depth_max",
             static_cast<double>(bench.service().queue_depth_max()), "count");
  out.metric("service.drain_ms", median(drains), "ms");

  const Tally audit = bench.audit();
  out.tally += audit;
  if (audit.failed != 0) out.fail("read-back audit failed in the service suite");
}

}  // namespace perfbench
