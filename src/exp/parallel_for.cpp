#include "exp/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace sudoku::exp {

unsigned resolve_threads(unsigned threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

void parallel_for(unsigned threads, std::uint64_t n,
                  const std::function<void(std::uint64_t)>& fn) {
  std::atomic<std::uint64_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto work = [&] {
    for (std::uint64_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  const std::uint64_t width = std::min<std::uint64_t>(resolve_threads(threads), n);
  std::vector<std::thread> workers;
  workers.reserve(width);
  for (std::uint64_t w = 1; w < width; ++w) {
    try {
      workers.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // the workers already started take the remaining indices
    }
  }
  work();
  for (auto& t : workers) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sudoku::exp
