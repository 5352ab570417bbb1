// Repository benchmark binary (built and run by perfbench/run.py).
//
//   sudoku_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   sudoku_perfbench --selftest
//
// --trace 0 runs the workload untraced and prints its end-to-end metrics;
// --trace 1 runs the per-layer suite plus the workload's traced-vs-untraced
// overhead and prints the per-layer metrics. Report lines start with "# ";
// the last line is the JSON result. Exit status is 0 only when every
// output check passed.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "codes/crc31.h"
#include "obs/macros.h"
#include "workloads.h"

namespace perfbench {
int run_selftest();
}

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: sudoku_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "       sudoku_perfbench --selftest\n"
               "workloads: serve_z serve_hiecc mc_z_iid mc_z_mixed\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  if (*s == '\0' || *s == '-') return false;
  out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

// The CPU brand string, read with CPUID so the benchmark touches no file
// outside its checkout.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

// Host and build facts, so results from different builds or CRC kernels
// are never compared unknowingly.
void print_host(const std::string& workload, std::uint64_t seed, double seconds, int trace) {
  note("host {\"nproc\": %u, \"cpu\": \"%s\", \"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
       "\"compiler\": \"%s\", \"sudoku_obs\": %s, \"crc31_kernel\": \"%s\", "
       "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}",
       std::thread::hardware_concurrency(), cpu_model().c_str(), PERFBENCH_BUILD_TYPE,
       PERFBENCH_CXX_FLAGS, PERFBENCH_COMPILER, SUDOKU_OBS_ENABLED ? "true" : "false",
       sudoku::to_string(sudoku::Crc31::active_kernel()), workload.c_str(),
       static_cast<unsigned long long>(seed), seconds, trace);
}

void run_traced(const std::string& workload, std::uint64_t seed, double s, Result& out) {
  const double ratio = is_serve_workload(workload)
                           ? serve_trace_ratio(workload, seed, 0.25 * s, out)
                           : mc_trace_ratio(workload, seed, 0.25 * s, out);
  out.metric("trace.throughput_ratio", ratio, "ratio");
  note("%s traced/untraced throughput = %.4f", workload.c_str(), ratio);
  service_layer(seed, 0.25 * s, out);
  exp_layer(seed, 0.15 * s, out);
  codes_layer(seed, 0.08 * s, out);
  sudoku_layer(seed, 0.12 * s, out);
  baselines_layer(seed, 0.05 * s, out);
  trial_layer(seed, 0.10 * s, out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return run_selftest();
    if (i + 1 >= argc) return usage();
    const char* val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      if (!parse_u64(val, seed)) return usage();
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(val, seconds) || seconds == 0 || seconds > 3600) return usage();
    } else if (arg == "--trace") {
      if (!parse_u64(val, trace) || trace > 1) return usage();
    } else {
      return usage();
    }
  }
  if (!have_seed || seconds == 0 || trace > 1 ||
      !(is_serve_workload(workload) || is_mc_workload(workload))) {
    return usage();
  }

  const double s = static_cast<double>(seconds);
  print_host(workload, seed, s, static_cast<int>(trace));
  Result result;
  if (trace == 1) {
    run_traced(workload, seed, s, result);
  } else if (is_serve_workload(workload)) {
    run_serve(workload, seed, s, result);
  } else {
    run_mc(workload, seed, s, result);
  }
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value) || (trace == 0 && m.value <= 0.0)) {
      result.fail("metric " + m.name + " is not a positive finite number");
    }
  }
  if (result.tally.failed != 0) result.fail("some operations failed");
  std::printf("%s\n", render_json(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
