// The order statistics behind every number bench_suite prints. Quartiles are
// pinned to Python's statistics.quantiles(v, n=4), the method used to judge
// the benchmark's run-to-run spread.
#include "stats.h"

#include <gtest/gtest.h>

namespace {

using perfbench::median;
using perfbench::percentile;
using perfbench::summarize;

TEST(BenchStats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(BenchStats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const auto s = summarize({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(s.q1, 2.75);
  EXPECT_DOUBLE_EQ(s.median, 5.5);
  EXPECT_DOUBLE_EQ(s.q3, 8.25);
  EXPECT_EQ(s.n, 10u);
  // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
  const auto three = summarize({3, 1, 2});
  EXPECT_DOUBLE_EQ(three.q1, 1.0);
  EXPECT_DOUBLE_EQ(three.q3, 3.0);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto two = summarize({2, 1});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
}

TEST(BenchStats, SingleSampleIsItsOwnQuartiles) {
  const auto s = summarize({4.5});
  EXPECT_DOUBLE_EQ(s.q1, 4.5);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
  EXPECT_DOUBLE_EQ(s.q3, 4.5);
  EXPECT_EQ(s.n, 1u);
  EXPECT_EQ(summarize({}).n, 0u);
}

TEST(BenchStats, PercentileInterpolatesBetweenRanks) {
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.98), 98.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.98), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 1.5), 2.0);  // q is clamped to [0, 1]
}

}  // namespace
