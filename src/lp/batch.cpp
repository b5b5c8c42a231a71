#include "lp/batch.hpp"

namespace dls::lp {

BatchSolver::BatchSolver() : store_(std::make_shared<ColumnCacheStore>()) {}

BatchSolver::~BatchSolver() = default;

SolveArena& BatchSolver::local_arena() {
  const std::thread::id id = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<SolveArena>& slot = arenas_[id];
  if (!slot) slot = std::make_unique<SolveArena>(store_);
  return *slot;
}

BatchSolver::Stats BatchSolver::stats() const {
  Stats s;
  s.cache_hits = store_->hits();
  s.cache_misses = store_->misses();
  std::lock_guard<std::mutex> lock(mutex_);
  s.arenas = arenas_.size();
  return s;
}

}  // namespace dls::lp
