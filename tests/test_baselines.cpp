#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "baselines/cppc_cache.h"
#include "baselines/ecck_cache.h"
#include "baselines/hiecc_cache.h"
#include "baselines/raid6_cache.h"
#include "baselines/twodp_cache.h"
#include "reliability/analytical.h"
#include "reliability/montecarlo.h"

namespace sudoku::baselines {
namespace {

void inject(reliability::CacheScheme& s, std::uint64_t unit, int count, Rng& rng) {
  std::set<std::uint32_t> used;
  while (static_cast<int>(used.size()) < count) {
    const auto bit = static_cast<std::uint32_t>(rng.next_below(s.bits_per_unit()));
    if (used.insert(bit).second) s.array().flip(unit, bit);
  }
}

BitVec snapshot(const reliability::CacheScheme& s, std::uint64_t unit) {
  return s.array().read_line(unit);
}

// ---------- ECC-k ----------

class EccKParam : public ::testing::TestWithParam<int> {};

TEST_P(EccKParam, CorrectsUpToKFaultsPerLine) {
  const int k = GetParam();
  EccKCache cache(64, k);
  Rng rng(k);
  cache.format_random(rng);
  const BitVec golden = snapshot(cache, 7);
  inject(cache, 7, k, rng);
  const std::uint64_t units[] = {7};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.corrected, 1u);
  EXPECT_EQ(stats.due_units, 0u);
  EXPECT_EQ(snapshot(cache, 7), golden);
}

TEST_P(EccKParam, FlagsKPlusTwoFaults) {
  // k+1 faults may miscorrect; k+2 with an even spread is overwhelmingly
  // detected for t >= 2 (a lone Hamming-strength ECC-1 miscorrects multi-
  // bit patterns instead — exactly the weakness SuDoku's CRC-31 exists to
  // catch, covered by NeverReportsCleanBeyondK below).
  const int k = GetParam();
  if (k < 2) GTEST_SKIP() << "ECC-1 has no multi-error detection guarantee";
  EccKCache cache(64, k);
  Rng rng(100 + k);
  cache.format_random(rng);
  int due = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec golden = snapshot(cache, 3);
    inject(cache, 3, k + 2, rng);
    const std::uint64_t units[] = {3};
    const auto stats = cache.scrub_units(units);
    due += static_cast<int>(stats.due_units);
    cache.array().write_line(3, golden);
  }
  EXPECT_GT(due, 15);  // nearly always detected
}

TEST_P(EccKParam, NeverReportsCleanBeyondK) {
  // Whatever happens beyond k faults — detection or miscorrection — the
  // decoder must never claim the line had no errors.
  const int k = GetParam();
  EccKCache cache(64, k);
  Rng rng(200 + k);
  cache.format_random(rng);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec golden = snapshot(cache, 9);
    inject(cache, 9, k + 2, rng);
    const std::uint64_t units[] = {9};
    const auto stats = cache.scrub_units(units);
    if (stats.due_units == 0) {
      // Claimed corrected: must differ from golden only if it actually
      // miscorrected, in which case the stored word is some *other*
      // codeword — either way it was not reported clean.
      EXPECT_EQ(stats.corrected, 1u);
    }
    cache.array().write_line(9, golden);
  }
}

INSTANTIATE_TEST_SUITE_P(Tolerances, EccKParam, ::testing::Values(1, 2, 4, 6));

TEST(EccKCache, OverheadMatchesPaper) {
  EccKCache ecc6(16, 6);
  EXPECT_DOUBLE_EQ(ecc6.overhead_bits_per_line(), 60.0);  // §II-D
  EXPECT_EQ(ecc6.bits_per_unit(), 572u);
}

// ---------- CPPC ----------

TEST(CppcCache, RepairsOneMultiBitLineGlobally) {
  CppcCache cache(256);
  Rng rng(1);
  cache.format_random(rng);
  ASSERT_TRUE(cache.parity_consistent());
  const BitVec golden = snapshot(cache, 99);
  inject(cache, 99, 5, rng);
  const std::uint64_t units[] = {99};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_units, 0u);
  EXPECT_EQ(snapshot(cache, 99), golden);
}

TEST(CppcCache, FailsOnTwoMultiBitLinesAnywhere) {
  // The paper's point: one global parity cannot cover two faulty lines even
  // in completely unrelated locations.
  CppcCache cache(256);
  Rng rng(2);
  cache.format_random(rng);
  inject(cache, 10, 2, rng);
  inject(cache, 200, 2, rng);
  const std::uint64_t units[] = {10, 200};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_units, 2u);
}

TEST(CppcCache, SingleBitFaultsHandledPerLine) {
  CppcCache cache(128);
  Rng rng(3);
  cache.format_random(rng);
  inject(cache, 5, 1, rng);
  inject(cache, 50, 1, rng);
  const std::uint64_t units[] = {5, 50};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.corrected, 2u);
  EXPECT_EQ(stats.due_units, 0u);
  EXPECT_TRUE(cache.parity_consistent());
}

// ---------- RAID-6 ----------

TEST(Raid6Cache, RepairsTwoMultiBitLinesInGroup) {
  Raid6Cache cache(256, 32);
  Rng rng(4);
  cache.format_random(rng);
  const BitVec g1 = snapshot(cache, 3);
  const BitVec g2 = snapshot(cache, 17);  // same group of 32
  inject(cache, 3, 3, rng);
  inject(cache, 17, 4, rng);
  const std::uint64_t units[] = {3, 17};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_units, 0u);
  EXPECT_EQ(snapshot(cache, 3), g1);
  EXPECT_EQ(snapshot(cache, 17), g2);
}

TEST(Raid6Cache, FailsOnThreeMultiBitLinesInGroup) {
  Raid6Cache cache(256, 32);
  Rng rng(5);
  cache.format_random(rng);
  inject(cache, 1, 2, rng);
  inject(cache, 9, 2, rng);
  inject(cache, 25, 2, rng);
  const std::uint64_t units[] = {1, 9, 25};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_units, 3u);
}

TEST(Raid6Cache, RdpFlavorMatchesPqBehaviour) {
  // The RDP construction (the paper's "diagonal + row parity" wording)
  // must repair and fail on exactly the same patterns as P+Q.
  for (const auto flavor : {Raid6Flavor::kPQ, Raid6Flavor::kRdp}) {
    Raid6Cache cache(256, 32, flavor);
    Rng rng(14);
    cache.format_random(rng);
    const BitVec g1 = snapshot(cache, 3);
    const BitVec g2 = snapshot(cache, 17);
    inject(cache, 3, 3, rng);
    inject(cache, 17, 4, rng);
    const std::uint64_t two[] = {3, 17};
    EXPECT_EQ(cache.scrub_units(two).due_units, 0u) << cache.name();
    EXPECT_EQ(snapshot(cache, 3), g1) << cache.name();
    EXPECT_EQ(snapshot(cache, 17), g2) << cache.name();
    // Third multi-bit line in the same group defeats both flavors.
    inject(cache, 1, 2, rng);
    inject(cache, 9, 2, rng);
    inject(cache, 25, 2, rng);
    const std::uint64_t three[] = {1, 9, 25};
    EXPECT_EQ(cache.scrub_units(three).due_units, 3u) << cache.name();
  }
}

TEST(Raid6Cache, MultiBitLinesInDifferentGroupsAreIndependent) {
  Raid6Cache cache(256, 32);
  Rng rng(6);
  cache.format_random(rng);
  const BitVec g1 = snapshot(cache, 3);
  const BitVec g2 = snapshot(cache, 100);
  inject(cache, 3, 3, rng);
  inject(cache, 100, 3, rng);
  const std::uint64_t units[] = {3, 100};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_units, 0u);
  EXPECT_EQ(snapshot(cache, 3), g1);
  EXPECT_EQ(snapshot(cache, 100), g2);
}

// ---------- 2DP ----------

TEST(TwoDpCache, ResurrectsLikeSudokuY) {
  TwoDpCache cache(1024, 32);
  Rng rng(7);
  cache.format_random(rng);
  const BitVec g1 = snapshot(cache, 4);
  const BitVec g2 = snapshot(cache, 20);
  inject(cache, 4, 2, rng);
  inject(cache, 20, 2, rng);
  const std::uint64_t units[] = {4, 20};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_units, 0u);
  EXPECT_EQ(snapshot(cache, 4), g1);
  EXPECT_EQ(snapshot(cache, 20), g2);
}

TEST(TwoDpCache, NoSecondHashMeansThreeFaultPairsFail) {
  // Where SuDoku-Z recovers (Figure 6), 2DP cannot: same lines, one hash.
  TwoDpCache cache(1024, 32);
  Rng rng(8);
  cache.format_random(rng);
  inject(cache, 4, 3, rng);
  inject(cache, 20, 3, rng);
  const std::uint64_t units[] = {4, 20};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_units, 2u);
}

// ---------- Hi-ECC ----------

TEST(HiEccCache, CorrectsSixFaultsPerRegion) {
  HiEccCache cache(256);  // 16 regions
  Rng rng(9);
  cache.format_random(rng);
  const BitVec golden = snapshot(cache, 5);
  inject(cache, 5, 6, rng);
  const std::uint64_t units[] = {5};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.corrected, 1u);
  EXPECT_EQ(snapshot(cache, 5), golden);
}

TEST(HiEccCache, SevenFaultsInRegionDetected) {
  HiEccCache cache(256);
  Rng rng(10);
  cache.format_random(rng);
  inject(cache, 5, 8, rng);
  const std::uint64_t units[] = {5};
  const auto stats = cache.scrub_units(units);
  EXPECT_EQ(stats.due_units, 1u);
}

TEST(HiEccCache, OverheadFarBelowEcc6PerLine) {
  HiEccCache cache(256);
  EXPECT_LT(cache.overhead_bits_per_line(), 6.0);  // ~5.25 bits per 64 B
}

// ---------- the Monte-Carlo loop driving baselines ----------

reliability::McConfig baseline_config(reliability::SchemeFactory scheme, double ber,
                                      std::uint64_t intervals) {
  reliability::McConfig cfg;
  cfg.scheme = std::move(scheme);
  cfg.cache.ber = ber;
  cfg.max_intervals = intervals;
  return cfg;
}

TEST(BaselineMc, Ecc2MatchesAnalyticalAtAcceleratedBer) {
  auto cfg = baseline_config([] { return std::make_unique<EccKCache>(1u << 12, 2); }, 3e-4, 2000);
  cfg.seed = 11;
  const auto mc = reliability::run_montecarlo(cfg);
  reliability::CacheParams ap;
  ap.num_lines = 1u << 12;
  ap.ber = cfg.cache.ber;
  const auto an = reliability::ecc_k(ap, 2);
  ASSERT_GT(mc.failure_intervals, 10u);
  const double ratio = mc.p_failure_per_interval() / an.p_interval();
  EXPECT_GT(ratio, 0.4);
  EXPECT_LT(ratio, 2.5);
}

TEST(BaselineMc, CppcFailsConstantlyAtHighBer) {
  const auto mc = reliability::run_montecarlo(
      baseline_config([] { return std::make_unique<CppcCache>(1u << 12); }, 3e-4, 100));
  EXPECT_GT(mc.p_failure_per_interval(), 0.3);
}

TEST(BaselineMc, OrderingCppcWorstRaid6Better) {
  // At this BER the whole-cache pairing probability is ~19 per interval for
  // CPPC (always failing) while RAID-6's per-group triple probability is
  // only a few percent.
  const auto r_cppc = reliability::run_montecarlo(
      baseline_config([] { return std::make_unique<CppcCache>(1u << 12); }, 1e-4, 200));
  const auto r_raid6 = reliability::run_montecarlo(
      baseline_config([] { return std::make_unique<Raid6Cache>(1u << 12, 128); }, 1e-4, 200));
  EXPECT_GT(r_cppc.failure_intervals, r_raid6.failure_intervals);
}

TEST(BaselineMc, NoSdcInParityBasedSchemes) {
  const auto r = reliability::run_montecarlo(
      baseline_config([] { return std::make_unique<Raid6Cache>(1u << 12, 128); }, 2e-4, 100));
  EXPECT_EQ(r.sdc_lines, 0u);
  const auto r2 = reliability::run_montecarlo(
      baseline_config([] { return std::make_unique<TwoDpCache>(1u << 12, 128); }, 2e-4, 100));
  EXPECT_EQ(r2.sdc_lines, 0u);
}

}  // namespace
}  // namespace sudoku::baselines
