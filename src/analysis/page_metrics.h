// Per-page metric extraction from HAR archives, with provider attribution
// done by the LocEdge-substitute classifier (as in the paper's pipeline) —
// analysis never reads workload ground truth.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "browser/har.h"
#include "cdn/provider.h"
#include "locedge/classifier.h"

namespace h3cdn::analysis {

struct PageMetrics {
  std::string site;
  bool h3_enabled = false;
  double plt_ms = 0.0;

  std::size_t total_entries = 0;
  std::size_t cdn_entries = 0;
  std::size_t h2_entries = 0;
  std::size_t h3_entries = 0;
  std::size_t other_entries = 0;  // HTTP/1.x
  std::size_t h2_cdn_entries = 0;
  std::size_t h3_cdn_entries = 0;
  std::size_t other_cdn_entries = 0;

  std::size_t reused_connections = 0;   // entries with HAR connect == 0
  std::uint64_t resumed_connections = 0;  // ticket-based connections this visit
  std::uint64_t connections_created = 0;

  std::map<cdn::ProviderId, std::size_t> provider_counts;     // CDN entries
  std::map<cdn::ProviderId, std::size_t> provider_h3_counts;  // fetched via H3
  std::set<std::string> cdn_domains;

  [[nodiscard]] double cdn_fraction() const {
    return total_entries == 0 ? 0.0
                              : static_cast<double>(cdn_entries) /
                                    static_cast<double>(total_entries);
  }
  [[nodiscard]] std::size_t provider_count() const { return provider_counts.size(); }

  /// Distinct providers among the six giants the paper's §VI-D analysis
  /// counts (Amazon, Akamai, Cloudflare, Fastly, Google, Microsoft).
  [[nodiscard]] std::size_t giant_provider_count() const {
    std::size_t n = 0;
    for (auto id : cdn::ProviderRegistry::fig8_providers()) n += provider_counts.count(id);
    return n;
  }

  /// The provider serving the most CDN entries (the first in id order on a
  /// tie), or "none" when the page has no CDN entry.
  [[nodiscard]] std::string dominant_provider() const {
    const auto best = std::max_element(
        provider_counts.begin(), provider_counts.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    return best == provider_counts.end() ? "none" : cdn::to_string(best->first);
  }
};

PageMetrics compute_page_metrics(const browser::HarPage& page,
                                 const locedge::Classifier& classifier);

/// Per-entry phase reductions (connection/wait/receive), matching entries of
/// the two archives by resource id — the basis of Fig. 6b.
struct PhaseReduction {
  double connect_ms = 0.0;
  double wait_ms = 0.0;
  double receive_ms = 0.0;
  // The connect comparison is only meaningful for entries that initiated a
  // connection in BOTH visits (the same first-request-to-a-host both times);
  // reused entries report connect == 0 by HAR convention in either mode.
  bool connect_valid = false;
};

std::vector<PhaseReduction> entry_phase_reductions(const browser::HarPage& h2_page,
                                                   const browser::HarPage& h3_page);

}  // namespace h3cdn::analysis
