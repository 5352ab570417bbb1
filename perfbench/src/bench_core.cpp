#include "bench_core.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

double quantile_sorted_inplace(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double quantile(std::vector<double> samples, double q) {
  return quantile_sorted_inplace(samples, q);
}

double median(std::vector<double> samples) { return quantile_sorted_inplace(samples, 0.5); }

std::uint64_t count_above(const std::vector<double>& samples, double threshold) {
  return static_cast<std::uint64_t>(
      std::count_if(samples.begin(), samples.end(),
                    [threshold](double s) { return s > threshold; }));
}

namespace {

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t checksum(std::uint64_t w[7]) {
  std::uint64_t h = 0x6A09E667F3BCC908ull;
  for (int i = 0; i < 7; ++i) h = mix64(h ^ w[i]);
  return h;
}

}  // namespace

void fill_payload(sudoku::BitVec& out, std::uint64_t addr, std::uint64_t tag) {
  if (out.size() != 512) out.resize(512);
  std::uint64_t w[7] = {addr, tag, 0, 0, 0, 0, 0};
  for (int i = 2; i < 7; ++i) w[i] = mix64(addr ^ (tag << 7) ^ static_cast<std::uint64_t>(i));
  auto words = out.words();
  for (int i = 0; i < 7; ++i) words[i] = w[i];
  words[7] = checksum(w);
}

sudoku::BitVec make_payload(std::uint64_t addr, std::uint64_t tag) {
  sudoku::BitVec v(512);
  fill_payload(v, addr, tag);
  return v;
}

bool payload_ok(std::uint64_t addr, const sudoku::BitVec& data) {
  if (data.size() != 512) return false;
  const auto words = data.words();
  if (words[0] != addr) return false;
  std::uint64_t w[7];
  for (int i = 0; i < 7; ++i) w[i] = words[i];
  return words[7] == checksum(w);
}

void Result::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: output check failed: %s\n", why.c_str());
}

std::string render_json(const Result& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.tally.attempted);
  s += ", \"failed\": " + std::to_string(r.tally.failed);
  s += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (std::isfinite(m.value)) {
      std::snprintf(num, sizeof num, "%.17g", m.value);
    } else {
      std::snprintf(num, sizeof num, "null");
    }
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  s += "}}";
  return s;
}

void note(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fputs("# ", stdout);
  std::vprintf(fmt, args);
  std::fputc('\n', stdout);
  va_end(args);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
std::atomic<std::uint64_t> g_sink{0};
}  // namespace

void sink(std::uint64_t v) { g_sink.fetch_xor(v, std::memory_order_relaxed); }

}  // namespace perfbench
