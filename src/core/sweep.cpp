#include "core/sweep.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace h3cdn::core {

void run_sweep(std::size_t cells, int jobs, RunObservability* sink,
               const std::function<void(std::size_t cell, RunObservability* shard)>& run_cell) {
  H3CDN_EXPECTS(jobs >= 0);
  if (cells == 0) return;
  const std::size_t workers =
      std::min(jobs == 0 ? util::ThreadPool::default_jobs() : static_cast<std::size_t>(jobs),
               cells);

  std::vector<std::unique_ptr<RunObservability>> shards(cells);
  {
    util::ThreadPool pool(workers);
    pool.parallel_for(cells, [&](std::size_t cell) {
      if (sink != nullptr) {
        shards[cell] = std::make_unique<RunObservability>();
        shards[cell]->traces().set_shard_count(cells);
      }
      RunObservability* shard = shards[cell].get();
      obs::ScopedMetrics scoped_metrics(shard ? &shard->metrics() : nullptr);
      run_cell(cell, shard);
    });
  }

  if (sink == nullptr) return;
  for (const auto& shard : shards) sink->merge_from(std::move(*shard));
}

}  // namespace h3cdn::core
