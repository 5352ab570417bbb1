// Per-layer suites for the traced run. Each times calls into one module's
// public functions on seeded inputs from the benchmark's own code; nothing
// inside the library is instrumented. Counts (faults, repairs, stored bits)
// come from the same seeded inputs and repeat exactly for a seed.
#include <algorithm>
#include <vector>

#include "baselines/hiecc_cache.h"
#include "codes/batch_codec.h"
#include "codes/bch.h"
#include "codes/crc31.h"
#include "codes/hamming.h"
#include "common/rng.h"
#include "faults/scenario.h"
#include "reliability/analytical.h"
#include "reliability/montecarlo.h"
#include "sttram/fault_injector.h"
#include "sudoku/controller.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sudoku::BitVec;
using sudoku::Rng;
using sudoku::SudokuController;

constexpr std::uint64_t kLayerStream = 0x1A7E5ull;

// `nbits` wide, with its first `nrandom` bits random and the rest zero.
BitVec random_bits(Rng& rng, std::size_t nbits, std::size_t nrandom) {
  BitVec v(nbits);
  for (std::size_t i = 0; i < nrandom; i += 64) {
    const unsigned n = static_cast<unsigned>(std::min<std::size_t>(64, nrandom - i));
    v.set_bits(i, n, rng.next_u64());
  }
  return v;
}

SudokuController make_controller(std::uint64_t lines) {
  sudoku::SudokuConfig sc;
  sc.geo.num_lines = lines;
  sc.geo.group_size = 64;
  sc.level = sudoku::SudokuLevel::kZ;
  return SudokuController(sc);
}

// Controller formatted with random data, as each Monte-Carlo shard builds
// it, plus the golden copy of every stored line.
struct McArray {
  SudokuController ctrl;
  sudoku::SttramArray golden;

  McArray(std::uint64_t lines, std::uint64_t seed)
      : ctrl(make_controller(lines)), golden(lines, ctrl.codec().total_bits()) {
    Rng rng(Rng::derive_stream_seed(seed, sudoku::kFormatStream));
    ctrl.format([&](std::uint64_t line) {
      BitVec data = random_bits(rng, 512, 512);
      golden.write_line(line, ctrl.codec().encode(data));
      return data;
    });
  }

  // Put the given lines back to golden and resynchronise their parity.
  void restore(const std::vector<std::uint64_t>& lines) {
    std::vector<std::uint64_t> dirty;
    for (const auto line : lines) {
      if (!ctrl.array().line_equals(line, golden.read_line(line))) {
        ctrl.array().write_line(line, golden.read_line(line));
        dirty.push_back(line);
      }
    }
    ctrl.rebuild_parities_for(dirty);
  }
};

constexpr std::uint64_t kMcLines = 4096;
constexpr double kMcBer = 3e-4;

}  // namespace

void codes_layer(std::uint64_t seed, double seconds, Result& out) {
  Rng rng(Rng::derive_stream_seed(seed, kLayerStream));
  const double slice = seconds / 5.0;
  std::uint64_t acc = 0;

  std::vector<BitVec> data, stored;
  const sudoku::LineCodec codec(1);
  for (int i = 0; i < 256; ++i) {
    data.push_back(random_bits(rng, 512, 512));
    stored.push_back(codec.encode(data.back()));
  }
  const sudoku::Crc31 crc;
  out.metric("codes.crc31_ns", median_ns_per_call(slice, 1024, [&](std::uint64_t i) {
               acc += crc.compute(data[i & 255]);
             }), "ns");
  const sudoku::Hamming hamming(sudoku::LineCodec::kMessageBits);
  out.metric("codes.hamming_syndrome_ns",
             median_ns_per_call(slice, 1024, [&](std::uint64_t i) {
               acc += hamming.syndrome(stored[i & 255]);
             }), "ns");

  // The Hi-ECC region code exactly as the service's backend builds it.
  const sudoku::baselines::HiEccCache region(sudoku::baselines::HiEccCache::kLinesPerRegion);
  const sudoku::Bch& bch = region.codec();
  std::vector<BitVec> cws;
  for (std::size_t i = 0; i < sudoku::BitPlanes::kMaxLines; ++i) {
    cws.push_back(random_bits(rng, bch.codeword_bits(), bch.message_bits()));
    bch.encode(cws.back());
  }
  out.metric("codes.bch_region_encode_us", median_ns_per_call(slice, 8, [&](std::uint64_t i) {
               bch.encode(cws[i & 63]);
             }) / 1e3, "us");
  out.metric("codes.bch_region_syndromes_us",
             median_ns_per_call(slice, 8, [&](std::uint64_t i) {
               acc += bch.syndromes(cws[i & 63])[0];
             }) / 1e3, "us");
  // One call stages, transposes and syndromes a full 64-codeword batch;
  // the metric is per codeword.
  sudoku::BitPlanes planes;
  std::vector<std::uint32_t> syn(cws.size() * 2 * static_cast<std::size_t>(bch.t()));
  out.metric("codes.bch_region_batch_us",
             median_ns_per_call(slice, 1, [&](std::uint64_t) {
               planes.reset(bch.codeword_bits(), cws.size());
               for (std::size_t k = 0; k < cws.size(); ++k) planes.load_line(k, cws[k].words());
               planes.finalize();
               bch.batch_syndromes(planes, syn.data());
               acc += syn[0];
             }) / 1e3 / static_cast<double>(cws.size()), "us");
  sink(acc);
}

void sudoku_layer(std::uint64_t seed, double seconds, Result& out) {
  Rng rng(Rng::derive_stream_seed(seed, kLayerStream + 1));
  const double slice = seconds / 8.0;
  std::uint64_t acc = 0;

  // Set-up share of serve_z: its eight banks built and formatted directly.
  std::vector<double> formats;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (std::uint32_t bank = 0; bank < 8; ++bank) {
      SudokuController c = make_controller(16384);
      c.format([bank](std::uint64_t line) { return make_payload(line * 8 + bank, 0); });
    }
    formats.push_back(seconds_between(t0, Clock::now()));
  }
  out.metric("sudoku.format_s", median(formats), "s");

  // serve_z's data path, one bank, no service in front.
  SudokuController ctrl = make_controller(16384);
  ctrl.format([](std::uint64_t line) { return make_payload(line * 8, 0); });
  std::vector<std::uint64_t> lines(4096);
  for (auto& l : lines) l = rng.next_below(16384);
  std::vector<BitVec> payloads, stored;
  for (int i = 0; i < 64; ++i) payloads.push_back(make_payload(lines[i] * 8, 1 + i));
  for (int i = 0; i < 256; ++i) stored.push_back(ctrl.array().read_line(lines[i]));
  out.metric("sudoku.fully_clean_ns", median_ns_per_call(slice, 1024, [&](std::uint64_t i) {
               acc += ctrl.codec().fully_clean(stored[i & 255]);
             }), "ns");
  out.metric("sudoku.read_data_ns", median_ns_per_call(slice, 1024, [&](std::uint64_t i) {
               acc += ctrl.read_data(lines[i & 4095]).data.words()[0];
             }), "ns");
  out.metric("sudoku.write_data_ns", median_ns_per_call(slice, 1024, [&](std::uint64_t i) {
               ctrl.write_data(lines[i & 4095], payloads[i & 63]);
             }), "ns");

  // Repair rungs: scrub_lines on one group prepared so that exactly the
  // named rung is the highest that fires.
  McArray mc(kMcLines, seed);
  const auto& hash = mc.ctrl.hash();
  const std::uint64_t group = rng.next_below(kMcLines / 64);
  const std::uint64_t a = hash.member1(group, 3), b = hash.member1(group, 17);
  struct Flip {
    std::uint64_t line;
    std::uint32_t bit;
  };
  struct Rung {
    const char* name;
    std::vector<Flip> flips;
    bool (*expect)(const sudoku::ScrubStats&);
  };
  const Rung rungs[] = {
      {"ecc1", {{a, 100}},
       [](const sudoku::ScrubStats& s) {
         return s.ecc1_corrections == 1 && s.raid4_repairs == 0 && s.sdr_repairs == 0 &&
                s.hash2_invocations == 0;
       }},
      {"raid4", {{a, 100}, {a, 200}, {a, 300}},
       [](const sudoku::ScrubStats& s) {
         return s.raid4_repairs == 1 && s.sdr_repairs == 0 && s.hash2_invocations == 0;
       }},
      // Two 2-fault lines with disjoint positions: the parity mismatch
      // shows all four, so SDR resurrects one and RAID-4 the other.
      {"sdr", {{a, 100}, {a, 200}, {b, 300}, {b, 400}},
       [](const sudoku::ScrubStats& s) {
         return s.sdr_repairs >= 1 && s.hash2_invocations == 0;
       }},
      // Same positions in both lines: the faults cancel in the Hash-1
      // parity, so only the disjoint Hash-2 groups can rebuild them.
      {"hash2", {{a, 100}, {a, 200}, {b, 100}, {b, 200}},
       [](const sudoku::ScrubStats& s) { return s.hash2_invocations >= 1; }},
  };
  for (const Rung& rung : rungs) {
    std::vector<std::uint64_t> touched;
    for (const Flip& f : rung.flips) {
      if (touched.empty() || touched.back() != f.line) touched.push_back(f.line);
    }
    std::uint64_t wrong = 0;
    std::vector<double> times;
    repeat_for(slice / 2.0, 20, [&] {
      for (const Flip& f : rung.flips) mc.ctrl.array().flip(f.line, f.bit);
      const auto t0 = Clock::now();
      const auto stats = mc.ctrl.scrub_lines(touched);
      times.push_back(seconds_between(t0, Clock::now()));
      if (!rung.expect(stats) || stats.due_lines != 0) ++wrong;
      for (const auto line : touched) {
        if (!mc.ctrl.array().line_equals(line, mc.golden.read_line(line))) ++wrong;
      }
      mc.restore(touched);
    });
    out.metric(std::string("sudoku.rung.") + rung.name + "_us", median(times) * 1e6, "us");
    out.tally.add(times.size(), wrong ? times.size() : 0);
    if (wrong) out.fail(std::string("repair rung ") + rung.name + " did not fire as prepared");
  }
  sink(acc);
}

void baselines_layer(std::uint64_t seed, double seconds, Result& out) {
  Rng rng(Rng::derive_stream_seed(seed, kLayerStream + 2));
  const double slice = seconds / 3.0;
  constexpr std::uint64_t kLines = 2048;  // one serve_hiecc bank
  std::uint64_t acc = 0;
  auto fmt = [](std::uint64_t line) { return make_payload(line * 2, 0); };

  std::vector<double> formats;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (int bank = 0; bank < 2; ++bank) {
      sudoku::baselines::HiEccCache c(kLines, 6);
      c.format_lines(fmt);
    }
    formats.push_back(seconds_between(t0, Clock::now()));
  }
  out.metric("baselines.format_s", median(formats), "s");

  sudoku::baselines::HiEccCache cache(kLines, 6);
  cache.format_lines(fmt);
  std::vector<std::uint64_t> lines(1024);
  for (auto& l : lines) l = rng.next_below(kLines);
  const BitVec payload = make_payload(0, 7);
  out.metric("baselines.region_read_us", median_ns_per_call(slice, 16, [&](std::uint64_t i) {
               acc += cache.read_line_data(lines[i & 1023]).data.words()[0];
             }) / 1e3, "us");
  out.metric("baselines.region_write_us", median_ns_per_call(slice, 16, [&](std::uint64_t i) {
               cache.write_line_data(lines[i & 1023], payload);
             }) / 1e3, "us");

  // Stored bits moved per demanded bit over serve_hiecc's 70/30 mix.
  cache.reset_io_stats();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (i % 10 < 3) {
      cache.write_line_data(lines[i & 1023], payload);
    } else {
      acc += cache.read_line_data(lines[i & 1023]).data.words()[0];
    }
  }
  out.metric("baselines.region_bits_per_demand_bit",
             cache.io_stats().bandwidth_amplification(), "count");
  sink(acc);
}

void trial_layer(std::uint64_t seed, double seconds, Result& out) {
  constexpr std::uint64_t kTrials = 128;  // one pass: the same seeded intervals each time

  std::vector<double> formats;
  for (int rep = 0; rep < 9; ++rep) {
    const auto t0 = Clock::now();
    McArray warm(kMcLines, seed);
    formats.push_back(seconds_between(t0, Clock::now()));
  }
  const double format_s = median(formats);
  out.metric("reliability.format_s", format_s, "s");

  // Inject and scrub phases of trials 0..kTrials-1, drawn exactly as the
  // engine's per-trial streams draw them, alternated with whole passes of
  // the reliability harness over the same trials so that drift cancels in
  // the phase shares.
  McArray mc(kMcLines, seed);
  const sudoku::FaultInjector injector(kMcLines, mc.ctrl.codec().total_bits(), kMcBer);
  auto harness_pass_s = [&](const sudoku::faults::FaultScenario* scenario) {
    sudoku::reliability::McConfig cfg;
    cfg.cache.num_lines = kMcLines;
    cfg.cache.group_size = 64;
    cfg.cache.ber = kMcBer;
    cfg.level = sudoku::SudokuLevel::kZ;
    cfg.seed = seed;
    cfg.max_intervals = kTrials;
    cfg.per_trial_seed_streams = true;
    cfg.scenario = scenario;
    const auto t0 = Clock::now();
    const auto r = sudoku::reliability::run_montecarlo(cfg);
    if (r.intervals != kTrials) out.fail("run_montecarlo stopped early");
    return seconds_between(t0, Clock::now()) - format_s;
  };
  std::vector<double> sample_us, scrub_us, trial_pass, inject_share, scrub_share;
  std::uint64_t faults = 0, passes = 0;
  std::vector<std::uint64_t> touched;
  Rng rng;
  const auto start = Clock::now();
  while (passes < 3 || seconds_between(start, Clock::now()) < 0.6 * seconds) {
    double inject_total = 0.0, scrub_total = 0.0;
    for (std::uint64_t t = 0; t < kTrials; ++t) {
      rng.reseed(Rng::derive_stream_seed(seed, t));
      const auto t0 = Clock::now();
      const auto batch = injector.sample_interval(rng);
      const auto t1 = Clock::now();
      sudoku::FaultInjector::apply(batch, mc.ctrl.array());
      touched.clear();
      for (const auto& [line, bits] : batch) touched.push_back(line);
      const auto t2 = Clock::now();
      mc.ctrl.scrub_lines(touched);
      const auto t3 = Clock::now();
      mc.restore(touched);
      if (passes == 0) faults += sudoku::FaultInjector::count(batch);
      sample_us.push_back(seconds_between(t0, t1) * 1e6);
      scrub_us.push_back(seconds_between(t2, t3) * 1e6);
      inject_total += seconds_between(t0, t2);
      scrub_total += seconds_between(t2, t3);
    }
    const double trial_total = harness_pass_s(nullptr);
    trial_pass.push_back(trial_total);
    inject_share.push_back(inject_total / trial_total);
    scrub_share.push_back(scrub_total / trial_total);
    ++passes;
  }
  out.metric("sttram.sample_interval_us", median(sample_us), "us");
  out.metric("sttram.faults_per_interval",
             static_cast<double>(faults) / static_cast<double>(kTrials), "count");
  out.metric("sudoku.scrub_lines_us", median(scrub_us), "us");
  out.metric("reliability.trial_us", median(trial_pass) / kTrials * 1e6, "us");
  const double inject = median(inject_share), scrub = median(scrub_share);
  out.metric("reliability.inject_share", inject, "ratio");
  out.metric("reliability.scrub_share", scrub, "ratio");
  out.metric("reliability.classify_restore_share", 1.0 - inject - scrub, "ratio");

  const sudoku::faults::FaultScenario scenario(
      sudoku::faults::ScenarioSpec::builtin("mixed"),
      sudoku::faults::Geometry{kMcLines, mc.ctrl.codec().total_bits()}, seed);
  std::vector<double> mixed_pass;
  repeat_for(0.2 * seconds, 3, [&] { mixed_pass.push_back(harness_pass_s(&scenario)); });
  out.metric("reliability.trial_mixed_us", median(mixed_pass) / kTrials * 1e6, "us");
  std::uint64_t acc = 0;
  out.metric("faults.transient_us", median_ns_per_call(0.1 * seconds, 16, [&](std::uint64_t i) {
               acc += scenario.transient(i & 255).size();
             }) / 1e3, "us");
  out.metric("faults.stuck_us", median_ns_per_call(0.1 * seconds, 16, [&](std::uint64_t i) {
               acc += scenario.stuck(i & 255).cells().size();
             }) / 1e3, "us");
  sink(acc);
  out.tally.add(passes * kTrials, 0);
}

}  // namespace perfbench
