// Per-bank backends of the concurrent memory service (docs/service.md). A
// bank is any reliability::CacheScheme with a line data path; the service
// fronts an array of them with per-bank locking and a lock-free clean-read
// fast path (the scheme's probe_clean_line).
#pragma once

#include <memory>

#include "baselines/hiecc_cache.h"
#include "reliability/sudoku_scheme.h"

namespace sudoku::service {

using Backend = reliability::CacheScheme;
using ReadStatus = sudoku::ReadStatus;
using ReadReply = sudoku::ReadReply;

// SuDoku-X/Y/Z bank with the paper's geometry.
inline std::unique_ptr<Backend> make_sudoku_backend(const SudokuConfig& config) {
  return std::make_unique<reliability::SudokuScheme>(config);
}

// Hi-ECC baseline bank (ECC-t over 1 KB regions); num_lines % 16 == 0.
inline std::unique_ptr<Backend> make_hiecc_backend(std::uint64_t num_lines, int t = 6) {
  return std::make_unique<baselines::HiEccCache>(num_lines, t);
}

}  // namespace sudoku::service
