// FaultSim-style command-line reliability simulator (the paper's cited
// methodology [50][52]): pick a scheme, an error rate, and a cache
// geometry; get a FIT/MTTF estimate from functional Monte-Carlo fault
// injection, with the analytical prediction alongside.
//
// Usage:
//   faultsim_cli --scheme=<x|y|z|ecc1..ecc6|cppc|raid6|2dp|hiecc>
//                [--ber=1e-4] [--lines=16384] [--group=128]
//                [--intervals=1000] [--seed=1] [--inner-t=1]
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "baselines/cppc_cache.h"
#include "baselines/ecck_cache.h"
#include "baselines/hiecc_cache.h"
#include "baselines/raid6_cache.h"
#include "baselines/twodp_cache.h"
#include "reliability/analytical.h"
#include "reliability/montecarlo.h"

using namespace sudoku;
using namespace sudoku::reliability;

namespace {

struct Args {
  std::string scheme = "z";
  double ber = 1e-4;
  std::uint64_t lines = 1u << 14;
  std::uint32_t group = 128;
  std::uint64_t intervals = 1000;
  std::uint64_t seed = 1;
  int inner_t = 1;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad argument: %s\n", a.c_str());
      return false;
    }
    const std::string key = a.substr(2, eq - 2);
    const std::string val = a.substr(eq + 1);
    if (key == "scheme") args.scheme = val;
    else if (key == "ber") args.ber = std::stod(val);
    else if (key == "lines") args.lines = std::stoull(val);
    else if (key == "group") args.group = static_cast<std::uint32_t>(std::stoul(val));
    else if (key == "intervals") args.intervals = std::stoull(val);
    else if (key == "seed") args.seed = std::stoull(val);
    else if (key == "inner-t") args.inner_t = std::stoi(val);
    else {
      std::fprintf(stderr, "unknown option: --%s\n", key.c_str());
      return false;
    }
  }
  return true;
}

void report(const std::string& scheme, double p_fail, std::uint64_t events,
            std::uint64_t intervals, double analytical_p) {
  std::printf("\n  scheme            : %s\n", scheme.c_str());
  std::printf("  failing intervals : %llu / %llu\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(intervals));
  std::printf("  MC P[fail]/20ms   : %.4g\n", p_fail);
  std::printf("  analytical        : %.4g\n", analytical_p);
  if (p_fail > 0) {
    std::printf("  MC FIT            : %.4g\n", p_fail * 1.8e14);
    std::printf("  MC MTTF           : %.4g s\n", 0.02 / p_fail);
  } else {
    std::printf("  MC FIT            : 0 observed (raise --ber or --intervals)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return 1;

  CacheParams ap;
  ap.num_lines = args.lines;
  ap.group_size = args.group;
  ap.ber = args.ber;
  ap.inner_ecc_t = args.inner_t;

  std::printf("faultsim: %llu lines, group %u, BER %.3g per 20ms interval, %llu intervals",
              static_cast<unsigned long long>(args.lines), args.group, args.ber,
              static_cast<unsigned long long>(args.intervals));

  McConfig cfg;
  cfg.cache = ap;
  cfg.max_intervals = args.intervals;
  cfg.seed = args.seed;

  if (args.scheme == "x" || args.scheme == "y" || args.scheme == "z") {
    cfg.level = args.scheme == "x"   ? SudokuLevel::kX
                : args.scheme == "y" ? SudokuLevel::kY
                                     : SudokuLevel::kZ;
    const auto r = run_montecarlo(cfg);
    FitResult an{};
    if (args.scheme == "x") an = sudoku_x_due(ap);
    if (args.scheme == "y") an = sudoku_y_due(ap);
    if (args.scheme == "z") an = sudoku_z_due(ap);
    report(std::string("SuDoku-") + static_cast<char>(std::toupper(args.scheme[0])),
           r.p_failure_per_interval(), r.failure_intervals, r.intervals,
           an.p_interval());
    std::printf("  repairs           : ecc1=%llu raid4=%llu sdr=%llu hash2=%llu sdc=%llu\n",
                static_cast<unsigned long long>(r.ecc1_corrections),
                static_cast<unsigned long long>(r.raid4_repairs),
                static_cast<unsigned long long>(r.sdr_repairs),
                static_cast<unsigned long long>(r.hash2_invocations),
                static_cast<unsigned long long>(r.sdc_lines));
    return 0;
  }

  double analytical_p = 0.0;
  if (args.scheme.rfind("ecc", 0) == 0) {
    const int k = std::stoi(args.scheme.substr(3));
    cfg.scheme = [&args, k] { return std::make_unique<baselines::EccKCache>(args.lines, k); };
    analytical_p = ecc_k(ap, k).p_interval();
  } else if (args.scheme == "cppc") {
    cfg.scheme = [&] { return std::make_unique<baselines::CppcCache>(args.lines); };
    analytical_p = cppc(ap).p_interval();
  } else if (args.scheme == "raid6") {
    cfg.scheme = [&] { return std::make_unique<baselines::Raid6Cache>(args.lines, args.group); };
    analytical_p = raid6(ap).p_interval();
  } else if (args.scheme == "2dp") {
    cfg.scheme = [&] { return std::make_unique<baselines::TwoDpCache>(args.lines, args.group); };
    analytical_p = twodp(ap).p_interval();
  } else if (args.scheme == "hiecc") {
    cfg.scheme = [&] { return std::make_unique<baselines::HiEccCache>(args.lines); };
    analytical_p = hi_ecc(ap).p_interval();
  } else {
    std::fprintf(stderr, "\nunknown scheme: %s\n", args.scheme.c_str());
    return 1;
  }
  const auto r = run_montecarlo(cfg);
  report(cfg.scheme()->name(), r.p_failure_per_interval(), r.failure_intervals,
         r.intervals, analytical_p);
  return 0;
}
