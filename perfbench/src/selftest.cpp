// Self-test of the benchmark's own metric code: quantiles from raw
// samples, error-rate accounting, the payload audit predicate and the
// result line's shape. run.py adds the check that emitted metric names
// equal the sets declared in BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_core.h"
#include "common/json_parse.h"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b)); }

void test_quantiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  expect(near(quantile(v, 0.0), 1.0), "q0 is the minimum");
  expect(near(quantile(v, 1.0), 100.0), "q1 is the maximum");
  expect(near(median(v), 50.5), "median interpolates between the middle ranks");
  expect(near(quantile(v, 0.99), 99.01), "p99 interpolates at rank 0.99*(n-1)");
  expect(count_above(v, quantile(v, 0.99)) == 1, "one sample lies beyond p99 of 100");
  expect(near(quantile({7.0}, 0.99), 7.0), "single sample");
  expect(quantile({}, 0.5) == 0.0, "empty set");
  // Raw samples resolve a 10% shift inside one log-2 bucket (256-512 ns),
  // which a bucketed histogram cannot.
  std::vector<double> base, shifted;
  for (int i = 0; i < 1000; ++i) {
    base.push_back(300.0 + 0.1 * i);
    shifted.push_back((300.0 + 0.1 * i) * 1.1);
  }
  expect(near(median(shifted) / median(base), 1.1), "10% shift inside one log-2 bucket");
}

void test_tally() {
  Tally t;
  expect(t.error_rate() == 0.0, "no attempts, no errors");
  t.add(1000, 0);
  t.add(500, 5);
  Tally u;
  u.add(500, 10);
  t += u;
  expect(t.attempted == 2000 && t.failed == 15, "tally sums");
  expect(near(t.error_rate(), 15.0 / 2000.0), "error rate is failed / attempted");
}

void test_payload() {
  const auto p = make_payload(12345, 0);
  expect(payload_ok(12345, p), "formatted pattern passes");
  expect(!payload_ok(12346, p), "payload for another address fails");
  const auto w = make_payload(77, (std::uint64_t{3} << 40) | 9);
  expect(payload_ok(77, w), "written payload passes");
  bool all_flips_caught = true;
  for (std::size_t bit = 0; bit < 512; ++bit) {
    auto bad = w;
    bad.flip(bit);
    all_flips_caught &= !payload_ok(77, bad);
  }
  expect(all_flips_caught, "every single-bit corruption fails the audit");
  expect(!payload_ok(77, sudoku::BitVec(512)), "zeroed (DUE) data fails");
}

void test_render() {
  Result r;
  r.tally.add(10, 1);
  r.correct = false;
  r.metric("a.b", 1.0 / 3.0, "us");
  r.metric("c", 2e9, "1/s");
  const auto doc = sudoku::json_parse(render_json(r));
  expect(doc.has_value(), "result line is valid JSON");
  if (!doc) return;
  expect(doc->members.size() == 4, "result line has exactly four keys");
  const auto* metrics = doc->find("metrics");
  expect(metrics && metrics->members.size() == 2, "metrics object holds every metric");
  const auto* a = metrics ? metrics->find("a.b") : nullptr;
  expect(a && a->find("value") && a->find("value")->as_double() == 1.0 / 3.0,
         "values keep all their digits");
  expect(a && a->find("unit") && a->find("unit")->scalar == "us", "units are kept");
  expect(doc->find("attempted")->as_u64() == 10u && doc->find("failed")->as_u64() == 1u,
         "attempted and failed are whole numbers");
}

}  // namespace

int run_selftest() {
  test_quantiles();
  test_tally();
  test_payload();
  test_render();
  std::printf("selftest: %s\n", g_failures ? "FAILED" : "ok");
  return g_failures ? 1 : 0;
}

}  // namespace perfbench
