// Histogram: the log-bucketed distribution shared by the run-wide metrics
// registry (obs/metrics.h) and the per-window timeline (obs/timeline.h).
#pragma once

#include <cstdint>
#include <vector>

namespace h3cdn::obs {

/// Log-bucketed histogram in the spirit of HDR histograms: geometric buckets
/// with ~9% relative width, so percentile readouts are within one bucket
/// (<= +9%/-0%) of the exact sample quantile while insertion is O(1) and
/// memory is bounded regardless of sample count.
class Histogram {
 public:
  /// Values at or below the resolution floor land in the underflow bucket.
  static constexpr double kMinValue = 1e-3;
  /// Geometric bucket growth: 2^(1/8) per bucket (~9.05%).
  static constexpr double kGrowth = 1.0905077326652577;

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Percentile estimate, q in [0,1]: the upper bound of the bucket holding
  /// the rank-q sample, clamped to the observed [min, max]. Within one bucket
  /// width (~9%) of the exact sample quantile.
  [[nodiscard]] double percentile(double q) const;

  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p90() const { return percentile(0.90); }
  [[nodiscard]] double p99() const { return percentile(0.99); }
  [[nodiscard]] double p999() const { return percentile(0.999); }

  /// Shard merge: bucket counts, count, min and max combine exactly, so
  /// percentiles of a merged histogram equal those of single-registry
  /// recording regardless of how samples were split across shards. `sum` is
  /// a float accumulation whose value depends on merge order only — merging
  /// shards in canonical order therefore yields one reproducible result for
  /// any job count.
  void merge_from(const Histogram& other);

 private:
  [[nodiscard]] std::size_t bucket_index(double v) const;
  [[nodiscard]] double bucket_upper(std::size_t index) const;

  std::vector<std::uint64_t> buckets_;  // [0] = underflow (v <= kMinValue)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace h3cdn::obs
