// Globally distributed probes — the paper's future-work item 3: "conduct
// measurements from geographically diverse vantage locations". Runs a small
// paired study per vantage (the three US CloudLab sites plus Frankfurt,
// São Paulo and Singapore) and shows how the H3 benefit scales with distance
// from the (US-calibrated) edges and origins: every handshake round trip
// saved is worth more where round trips are longer.
//
//   ./build/examples/global_probes [n_pages]
#include <cstdio>
#include <cstdlib>

#include "core/experiments.h"
#include "util/stats.h"

using namespace h3cdn;

int main(int argc, char** argv) {
  const std::size_t pages = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 60;

  web::WorkloadConfig wcfg;
  wcfg.site_count = pages;
  auto workload = std::make_shared<web::Workload>(web::generate_workload(wcfg));

  std::printf("Paired H2/H3 study over %zu pages from six vantage points\n\n", pages);
  std::printf("%-12s %10s %14s %14s %16s\n", "vantage", "rtt scale", "mean H2 PLT", "mean H3 PLT",
              "mean reduction");

  for (const auto& vantage : browser::global_vantage_points()) {
    core::StudyConfig cfg;
    cfg.max_sites = pages;
    cfg.vantages = {vantage};
    cfg.probes_per_vantage = 2;
    const auto result = core::MeasurementStudy(cfg).run(workload);

    std::vector<double> h2, h3, red;
    for (const auto& p : result.pairs()) {
      h2.push_back(to_ms(p.h2->har.page_load_time));
      h3.push_back(to_ms(p.h3->har.page_load_time));
      red.push_back(to_ms(p.h2->har.page_load_time) - to_ms(p.h3->har.page_load_time));
    }
    std::printf("%-12s %10.2f %11.0f ms %11.0f ms %13.1f ms\n", vantage.name.c_str(),
                vantage.rtt_scale, util::mean(h2), util::mean(h3), util::mean(red));
  }

  std::printf("\nThe absolute H3 benefit grows with path length: the same 1-2 saved\n"
              "round trips per connection are worth more from farther away — the\n"
              "reason the paper calls for globally distributed probes (§IX).\n");
  return 0;
}
