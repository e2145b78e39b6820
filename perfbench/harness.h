// Types shared by the benchmark's parent process (bench_suite.cpp), the
// workloads it runs in child processes (workloads.cpp), and the per-layer
// measurements (layers.cpp).
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// What a child process needs to run one repetition of a workload.
struct RepContext {
  std::uint64_t seed = 1;
  int part = 0;            // which of the workload's parts this repetition runs
  bool traced = false;     // attach core::RunObservability and probe the layers
  int jobs = 1;            // min(4, nproc): the thread count of sweeps_parallel
  std::string work_dir;    // private working directory inside the build tree
  std::string obs_report;  // the h3cdn_obs_report binary
  std::function<void()> ready;  // called once, where set-up ends and the run step begins
};

/// What one repetition reports back to the parent.
struct RepResult {
  double run_wall_s = 0.0;  // the run step, set-up excluded
  double run_cpu_s = 0.0;   // process CPU (user + sys, all threads) of the run step
  std::uint64_t visits = 0;
  std::uint64_t failed_visits = 0;  // the root document never loaded
  std::string digest;               // FNV-1a of the run's canonical summary
  std::vector<std::pair<std::string, bool>> checks;
  std::map<std::string, double> layers;  // per-layer metrics (see README.md)
};

// One workload of BENCHMARK.json; workloads.cpp says why each was chosen.
struct Workload {
  std::string_view name;
  // Repetitions every untraced run makes, however long they take; more
  // follow while they fit in --seconds.
  int min_reps = 1;
  bool parallel = false;  // runs on RepContext::jobs threads instead of one
  // Distinct inputs a run cycles through, one per repetition, each drawn
  // from the seed. A run reports the sum over parts of each part's fastest
  // repetition, so short repetitions both average over several draws and
  // each get a best-of filter against a disturbed host. Traced runs use
  // part 0.
  int parts = 1;
  RepResult (*run)(const RepContext&) = nullptr;
};

/// The five workloads, in the order an all-workload run visits them.
const std::vector<Workload>& workloads();

inline double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU of the whole process (every thread), seconds.
inline double cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

/// Wall seconds of one call.
template <typename Fn>
double time_s(Fn&& fn) {
  const double start = wall_s();
  fn();
  return wall_s() - start;
}

inline std::string fnv1a_hex(std::string_view text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, h >>= 4) out[static_cast<std::size_t>(i)] = digits[h & 0xf];
  return out;
}

}  // namespace perfbench
