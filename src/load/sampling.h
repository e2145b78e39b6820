// Stratified coreset sampling for million-client fleet sweeps
// (docs/SCALING.md §4).
//
// Simulating every virtual client caps a sweep at thousands of visits per
// shard. A coreset run simulates a weighted representative subset instead:
// the arrival population is stratified by (link profile, arrival phase) so
// heterogeneous client classes stay proportionally represented — the
// stratification the lossy-cellular sharding literature (arXiv 1707.05836)
// shows is load-bearing — and each simulated member carries the weight
// population_s / sampled_s of its stratum. Counters extrapolate by weight;
// latency percentiles are weighted quantiles with a rank-based confidence
// bound derived from the effective (Kish) sample size, so every extrapolated
// number ships with an explicit error bar that the full-population run must
// fall inside (CI enforces exactly that).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace h3cdn::load {

/// One class of access link in a heterogeneous fleet; `profile` is a
/// net::LinkProfile name ("wired" | "cellular"). Profiles are assigned to
/// population members by a deterministic per-index draw, so a member keeps
/// its link class whether or not the run is sampled.
struct LinkMixEntry {
  std::string profile = "wired";
  double weight = 1.0;
};

/// Arrival-phase strata: the window is cut into this many equal spans so
/// diurnal load shape survives sampling. Ignored for closed-loop fleets.
inline constexpr std::uint32_t kArrivalPhases = 4;
/// Two-sided normal quantile for the reported quantile error bounds (95%
/// confidence).
inline constexpr double kConfidenceZ = 1.959964;

struct SamplingConfig {
  /// Target number of simulated members; 0 disables sampling (everyone runs).
  std::size_t target = 0;
};

struct StratumSummary {
  std::uint32_t id = 0;
  std::size_t population = 0;
  std::size_t sampled = 0;
  double weight = 0.0;  // population / sampled
};

struct SamplePlan {
  bool active = false;
  std::size_t population = 0;
  std::vector<std::uint32_t> chosen;   // ascending population-member indices
  std::vector<double> weights;         // parallel to `chosen`
  std::vector<StratumSummary> strata;  // ascending id; non-empty strata only
};

/// Plans a stratified sample of ~`target` members out of
/// `stratum_of.size()`. Allocation is proportional with largest-remainder
/// rounding, clamped to at least one member per non-empty stratum (so no
/// client class ever vanishes) and at most the stratum population. Members
/// within a stratum are drawn uniformly without replacement from `rng`.
/// Returns an inactive plan when target is 0 or >= the population.
SamplePlan plan_stratified_sample(const std::vector<std::uint32_t>& stratum_of,
                                  std::size_t target, util::Rng& rng);

struct QuantileEstimate {
  double value = 0.0;  // weighted quantile point estimate
  double lo = 0.0;     // error bound: value at rank q - z*se(q)
  double hi = 0.0;     // error bound: value at rank q + z*se(q)
  double n_eff = 0.0;  // Kish effective sample size
};

/// Weighted quantile of `value_weight` (unsorted; weights > 0) with a
/// rank-based confidence bound: the quantile rank's standard error is
/// sqrt(q(1-q)/n_eff), and [lo, hi] are the weighted quantiles at the rank
/// shifted down/up by z standard errors. With unit weights and large n this
/// collapses to the classic order-statistic CI. Returns zeros when empty.
QuantileEstimate weighted_quantile(std::vector<std::pair<double, double>> value_weight,
                                   double q, double z);

}  // namespace h3cdn::load
