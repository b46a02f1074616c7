#ifndef MDMATCH_API_PARALLEL_H_
#define MDMATCH_API_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "schema/schema.h"

namespace mdmatch::api::internal {

/// Runs `body(worker, begin, end)` over [0, n) split into contiguous
/// chunks, one per worker. Chunk boundaries depend only on (n, workers),
/// so the concatenated per-chunk outputs are identical for every worker
/// count. Shared by the Executor's match stage and the MatchSession's
/// evaluation stage — this *is* the executor thread pool.
inline void ParallelChunks(
    size_t n, size_t workers,
    const std::function<void(size_t, size_t, size_t)>& body) {
  if (workers <= 1 || n == 0) {
    body(0, 0, n);
    return;
  }
  workers = std::min(workers, n);
  const size_t chunk = (n + workers - 1) / workers;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    const size_t begin = w * chunk;
    const size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    threads.emplace_back([&body, w, begin, end] { body(w, begin, end); });
  }
  for (auto& t : threads) t.join();
}

/// True when the two schemas have the same attribute names in the same
/// order (the batch-vs-plan compatibility check of Executor and
/// MatchSession).
inline bool SameShape(const Schema& a, const Schema& b) {
  if (a.arity() != b.arity()) return false;
  for (AttrId i = 0; i < a.arity(); ++i) {
    if (a.attribute(i).name != b.attribute(i).name) return false;
  }
  return true;
}

}  // namespace mdmatch::api::internal

#endif  // MDMATCH_API_PARALLEL_H_
