// Shared symbolic analysis and per-thread solve arenas.
//
// A campaign cell solves thousands of small independent LPs whose
// constraint matrices repeat: one reduced steady-state model shape per
// platform, re-priced per payoff draw. BatchSolver holds what those
// solves can share — one ColumnCacheStore keeps each distinct matrix's
// column-wise structure (keyed by the constraint fingerprint, built
// once, read by every thread), and each calling thread owns a
// SolveArena so repeated solves allocate nothing once capacities warm
// up. Callers solve through SimplexSolver with local_arena().
//
// Determinism contract: a solve's result depends only on its model (and
// optional warm state) — never on the thread that ran it or the arena's
// history — so any thread count gives the numbers of a sequential loop.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "lp/simplex.hpp"

namespace dls::lp {

class BatchSolver {
 public:
  BatchSolver();
  ~BatchSolver();

  BatchSolver(const BatchSolver&) = delete;
  BatchSolver& operator=(const BatchSolver&) = delete;

  /// The calling thread's arena, created on first use and bound to the
  /// shared column-cache store. Usable from any thread, including pool
  /// workers (the campaign runner's offline kernel calls this from its
  /// case bodies).
  [[nodiscard]] SolveArena& local_arena();

  struct Stats {
    std::size_t cache_hits = 0;    ///< store lookups that found a structure
    std::size_t cache_misses = 0;  ///< store lookups that had to build one
    std::size_t arenas = 0;        ///< distinct thread arenas materialized
  };
  [[nodiscard]] Stats stats() const;

 private:
  std::shared_ptr<ColumnCacheStore> store_;
  mutable std::mutex mutex_;  // guards arenas_
  std::unordered_map<std::thread::id, std::unique_ptr<SolveArena>> arenas_;
};

}  // namespace dls::lp
