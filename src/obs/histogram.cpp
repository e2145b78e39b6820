#include "obs/histogram.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace h3cdn::obs {

void Histogram::observe(double v) {
  if (std::isnan(v)) return;
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  const std::size_t index = bucket_index(v);
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  ++buckets_[index];
}

std::size_t Histogram::bucket_index(double v) const {
  if (v <= kMinValue) return 0;
  // Bucket i > 0 covers (kMinValue * kGrowth^(i-1), kMinValue * kGrowth^i].
  const double exact = std::log(v / kMinValue) / std::log(kGrowth);
  auto index = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::max<std::size_t>(index, 1);
}

double Histogram::bucket_upper(std::size_t index) const {
  if (index == 0) return kMinValue;
  return kMinValue * std::pow(kGrowth, static_cast<double>(index));
}

double Histogram::percentile(double q) const {
  H3CDN_EXPECTS(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  // Nearest-rank: the smallest bucket whose cumulative count covers rank.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= target) {
      return std::clamp(bucket_upper(i), min_, max_);
    }
  }
  return max_;
}

void Histogram::merge_from(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
}

}  // namespace h3cdn::obs
