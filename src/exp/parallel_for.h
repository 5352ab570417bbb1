// Fork-join loop for the experiment engine: run fn(0..n-1) on `threads`
// workers and return once every index has run. Workers claim indices from
// one shared counter in ascending order, so each runs its indices back to
// back on one OS thread; the calling thread is one of the workers.
//
// Determinism note: which worker runs which index is up to the OS;
// reproducibility is the *engine's* job (per-trial seed streams +
// order-independent merges, see engine.h) — nothing here is ordered.
#pragma once

#include <cstdint>
#include <functional>

namespace sudoku::exp {

// Worker count for a requested width: 0 = one per hardware thread; at
// least 1.
unsigned resolve_threads(unsigned threads);

// A throwing fn(i) does not stop the loop: every other index still runs,
// and the first exception (in completion order) is rethrown to the caller
// after the join. Callers wanting retry or quarantine catch inside fn —
// see exp/engine.h.
void parallel_for(unsigned threads, std::uint64_t n,
                  const std::function<void(std::uint64_t)>& fn);

}  // namespace sudoku::exp
