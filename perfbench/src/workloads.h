// The benchmark's workloads and per-layer suite. Each entry point fills a
// Result; main.cpp prints it.
#pragma once

#include <cstdint>
#include <string>

#include "bench_core.h"

namespace perfbench {

bool is_serve_workload(const std::string& name);
bool is_mc_workload(const std::string& name);

// End-to-end run of a workload for about `seconds` of measurement:
// fixed-size rounds (serve) or campaigns (Monte-Carlo) until the budget is
// spent, with set-up re-timed between them, then the output audit.
void run_serve(const std::string& workload, std::uint64_t seed, double seconds,
               Result& out);
void run_mc(const std::string& workload, std::uint64_t seed, double seconds,
            Result& out);

// Traced-over-untraced throughput of one workload, alternating the two
// kinds of round inside one process (trace.throughput_ratio).
double serve_trace_ratio(const std::string& workload, std::uint64_t seed,
                         double seconds, Result& out);
double mc_trace_ratio(const std::string& workload, std::uint64_t seed,
                      double seconds, Result& out);

// Per-layer suites, each timing calls into one module's public functions.
void service_layer(std::uint64_t seed, double seconds, Result& out);
void exp_layer(std::uint64_t seed, double seconds, Result& out);
void codes_layer(std::uint64_t seed, double seconds, Result& out);
void sudoku_layer(std::uint64_t seed, double seconds, Result& out);
void baselines_layer(std::uint64_t seed, double seconds, Result& out);
// One Monte-Carlo trial split by phase: sttram injection, sudoku scrub,
// reliability harness, faults scenario draws.
void trial_layer(std::uint64_t seed, double seconds, Result& out);

}  // namespace perfbench
