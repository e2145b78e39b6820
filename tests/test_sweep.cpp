// The sweep engine's contract (core/sweep.h): job resolution, per-cell
// observability shards with split caps, canonical-order merge, and error
// propagation.
#include "core/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace h3cdn::core {
namespace {

struct SweepOutput {
  std::vector<std::string> rows;
  std::string metrics_json;
  std::string timeline_json;
};

// Every cell records through the thread-local hooks, like a real driver:
// timed counters and histogram samples that depend only on the cell index.
SweepOutput run_synthetic_sweep(std::size_t cells, int jobs) {
  RunObservability sink;
  SweepOutput out;
  out.rows.resize(cells);
  run_sweep(cells, jobs, &sink, [&](std::size_t cell, RunObservability* shard) {
    EXPECT_EQ(obs::MetricsRegistry::global(), &shard->metrics());
    for (std::size_t i = 0; i <= cell % 4; ++i) {
      obs::count("sweep.cell_events", TimePoint{msec(100 * static_cast<std::int64_t>(cell))});
      obs::observe("sweep.cell_ms", TimePoint{msec(50 * static_cast<std::int64_t>(i))},
                   static_cast<double>(cell * 10 + i));
    }
    out.rows[cell] = "cell" + std::to_string(cell);
  });
  out.metrics_json = obs::metrics_to_json(sink.metrics());
  out.timeline_json = obs::timeline_to_json(sink.timeline());
  return out;
}

TEST(Sweep, RowsAndMergedArtifactsAreByteIdenticalAcrossJobs) {
  // Cell counts below and above every job count.
  for (const std::size_t cells : {2u, 11u}) {
    const SweepOutput serial = run_synthetic_sweep(cells, 1);
    ASSERT_EQ(serial.rows.size(), cells);
    EXPECT_EQ(serial.rows.back(), "cell" + std::to_string(cells - 1));
    EXPECT_NE(serial.metrics_json.find("sweep.cell_events"), std::string::npos);
    EXPECT_NE(serial.timeline_json.find("sweep.cell_ms"), std::string::npos);
    for (const int jobs : {3, 8}) {
      const SweepOutput parallel = run_synthetic_sweep(cells, jobs);
      EXPECT_EQ(parallel.rows, serial.rows) << cells << " cells, jobs " << jobs;
      EXPECT_EQ(parallel.metrics_json, serial.metrics_json) << cells << " cells, jobs " << jobs;
      EXPECT_EQ(parallel.timeline_json, serial.timeline_json) << cells << " cells, jobs " << jobs;
    }
  }
}

// Distinct worker threads seen by a sweep whose first `rendezvous` cells all
// wait until that many cells are in flight at once.
std::size_t workers_seen(std::size_t cells, int jobs, std::size_t rendezvous) {
  std::mutex mutex;
  std::set<std::thread::id> threads;
  std::atomic<std::size_t> arrived{0};
  run_sweep(cells, jobs, nullptr, [&](std::size_t cell, RunObservability*) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      threads.insert(std::this_thread::get_id());
    }
    if (cell >= rendezvous) return;
    arrived.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load() < rendezvous) {
      if (std::chrono::steady_clock::now() > deadline) throw std::runtime_error("too few workers");
      std::this_thread::yield();
    }
  });
  return threads.size();
}

TEST(Sweep, ZeroJobsResolvesToTheDefaultJobCount) {
  const std::size_t defaults = util::ThreadPool::default_jobs();
  // All default_jobs() cells must be in flight at once, and no more workers
  // than that ever appear.
  EXPECT_EQ(workers_seen(2 * defaults, 0, defaults), defaults);
}

TEST(Sweep, JobsAreClampedToTheCellCount) {
  // Eight jobs over three cells: exactly three workers, all concurrent.
  EXPECT_EQ(workers_seen(3, 8, 3), 3u);
}

TEST(Sweep, NullSinkGivesNullShardsAndInstallsNothing) {
  std::atomic<int> cells_run{0};
  run_sweep(5, 2, nullptr, [&](std::size_t, RunObservability* shard) {
    EXPECT_EQ(shard, nullptr);
    EXPECT_EQ(obs::MetricsRegistry::global(), nullptr);
    cells_run.fetch_add(1);
  });
  EXPECT_EQ(cells_run.load(), 5);
}

TEST(Sweep, ShardCapsAreSplitAcrossCells) {
  ObservabilityConfig config;
  config.max_waterfalls = 5;
  RunObservability sink(config);
  run_sweep(3, 3, &sink, [&](std::size_t cell, RunObservability* shard) {
    ASSERT_NE(shard, nullptr);
    EXPECT_EQ(shard->config().max_waterfalls, 2u);  // ceil(5 / 3)
    for (int i = 0; i < 3; ++i) {
      obs::Waterfall wf;
      wf.site = "cell" + std::to_string(cell);
      shard->add_waterfall(std::move(wf));
    }
    EXPECT_EQ(shard->waterfalls().size(), 2u);
  });
  // Six shard waterfalls re-admitted through the run-level cap of five, in
  // cell order.
  ASSERT_EQ(sink.waterfalls().size(), 5u);
  EXPECT_EQ(sink.waterfalls().front().site, "cell0");
  EXPECT_EQ(sink.waterfalls().back().site, "cell2");
}

TEST(Sweep, ThrowingCellPropagates) {
  RunObservability sink;
  EXPECT_THROW(run_sweep(4, 2, &sink,
                         [](std::size_t cell, RunObservability*) {
                           if (cell == 2) throw std::runtime_error("cell failed");
                         }),
               std::runtime_error);
}

}  // namespace
}  // namespace h3cdn::core
