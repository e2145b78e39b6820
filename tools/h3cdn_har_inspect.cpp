// h3cdn_har_inspect — loads an exported HAR archive and prints a per-page
// digest: protocol mix, CDN attribution (via the LocEdge substitute), reuse
// statistics and the slowest entries. Also works on HAR files produced by
// other tools as long as they follow the HAR 1.2 layout.
//
//   h3cdn_har_inspect FILE.har [--top N]
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/page_metrics.h"
#include "browser/har_import.h"
#include "browser/waterfall.h"
#include "numeric_flag.h"
#include "obs/critical_path.h"
#include "util/table.h"

using namespace h3cdn;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: " << argv[0] << " FILE.har [--top N]\n";
    return 2;
  }
  std::size_t top = 10;
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::string(argv[i]) != "--top") continue;
    const auto value = tools::parse_number<std::size_t>("--top", argv[i + 1], tools::kAtLeastOne);
    if (!value) return 2;
    top = *value;
  }

  std::ifstream file(argv[1]);
  if (!file) {
    std::cerr << "cannot open " << argv[1] << '\n';
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  browser::HarImportError error;
  const auto page = browser::from_har_json(buffer.str(), &error);
  if (!page) {
    std::cerr << "failed to parse HAR: " << error.message << '\n';
    return 1;
  }

  const locedge::Classifier classifier;
  const auto metrics = analysis::compute_page_metrics(*page, classifier);

  std::cout << "page: " << page->site << "  (H3 browsing: " << (page->h3_enabled ? "on" : "off")
            << ")\n";
  std::cout << "onLoad: " << util::fmt(to_ms(page->page_load_time), 1) << " ms, "
            << page->entries.size() << " entries, " << page->connections_created
            << " connections (" << page->resumed_connections << " resumed, "
            << page->zero_rtt_connections << " 0-RTT)\n\n";

  util::AsciiTable mix({"scope", "h2", "h3", "http/1.x", "reused entries"});
  mix.add_row({"all", std::to_string(metrics.h2_entries), std::to_string(metrics.h3_entries),
               std::to_string(metrics.other_entries), std::to_string(metrics.reused_connections)});
  mix.add_row({"cdn", std::to_string(metrics.h2_cdn_entries),
               std::to_string(metrics.h3_cdn_entries), std::to_string(metrics.other_cdn_entries),
               ""});
  std::cout << mix.to_string();

  std::cout << "\nCDN share: " << util::fmt_pct(metrics.cdn_fraction()) << " across "
            << metrics.provider_count() << " providers:";
  for (const auto& [provider, count] : metrics.provider_counts) {
    std::cout << ' ' << cdn::to_string(provider) << '(' << count << ')';
  }
  std::cout << "\n\nslowest entries:\n";

  auto entries = page->entries;
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return a.timings.total() > b.timings.total();
  });
  util::AsciiTable t({"total ms", "connect", "wait", "receive", "proto", "domain"});
  for (std::size_t i = 0; i < std::min(top, entries.size()); ++i) {
    const auto& e = entries[i];
    t.add_row({util::fmt(to_ms(e.timings.total()), 1), util::fmt(to_ms(e.timings.connect), 1),
               util::fmt(to_ms(e.timings.wait), 1), util::fmt(to_ms(e.timings.receive), 1),
               http::to_string(e.timings.version), e.domain});
  }
  std::cout << t.to_string();

  // Critical-path attribution: imported pages carry _initiatorId edges, so
  // the walk follows the real dependency DAG (foreign HARs without the field
  // fall back to start-time ordering inside make_waterfall).
  const auto waterfall = browser::make_waterfall(*page);
  const auto cp = obs::analyze_critical_path(waterfall);
  const bool has_edges =
      std::any_of(page->entries.begin(), page->entries.end(),
                  [](const auto& e) { return e.initiator_id >= 0; });
  std::cout << "\ncritical path (" << (has_edges ? "initiator DAG" : "start-time fallback")
            << ", " << cp.path.size() << " hops, PLT " << util::fmt(cp.plt_ms, 1) << " ms):\n";
  util::AsciiTable phases({"phase", "ms", "share"});
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const auto p = static_cast<obs::Phase>(i);
    if (cp.phases[p] == 0.0) continue;
    phases.add_row({obs::to_string(p), util::fmt(cp.phases[p], 1),
                    util::fmt_pct(cp.plt_ms > 0 ? cp.phases[p] / cp.plt_ms : 0.0)});
  }
  std::cout << phases.to_string();
  return 0;
}
