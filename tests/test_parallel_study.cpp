// The determinism contract of the shard-parallel study engine: for a fixed
// seed, every exported artifact must be byte-identical at any --jobs value
// (docs/PARALLELISM.md). These tests pin the contract at jobs=1 vs jobs=4.
#include "core/study.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.h"
#include "core/export.h"
#include "core/observability.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/perfetto.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "obs/waterfall.h"
#include "tls/ticket_store.h"

namespace h3cdn::core {
namespace {

StudyConfig parallel_config(int jobs) {
  StudyConfig cfg;
  cfg.workload.site_count = 3;
  cfg.max_sites = 3;
  cfg.vantages = browser::default_vantage_points();  // 3 vantages
  cfg.probes_per_vantage = 2;                        // => 12 shards
  cfg.consecutive = true;  // exercise the per-shard ticket store
  cfg.jobs = jobs;
  return cfg;
}

TEST(ParallelStudy, VisitsAreIdenticalAcrossJobCounts) {
  const auto one = MeasurementStudy(parallel_config(1)).run();
  const auto four = MeasurementStudy(parallel_config(4)).run();
  ASSERT_EQ(one.visits.size(), four.visits.size());
  for (std::size_t i = 0; i < one.visits.size(); ++i) {
    const auto& a = one.visits[i];
    const auto& b = four.visits[i];
    EXPECT_EQ(a.vantage, b.vantage);
    EXPECT_EQ(a.probe, b.probe);
    EXPECT_EQ(a.site_index, b.site_index);
    EXPECT_EQ(a.h3_enabled, b.h3_enabled);
    EXPECT_EQ(a.har.page_load_time, b.har.page_load_time);
    EXPECT_EQ(a.har.connections_created, b.har.connections_created);
    EXPECT_EQ(a.har.resumed_connections, b.har.resumed_connections);
    EXPECT_EQ(a.har.entries.size(), b.har.entries.size());
  }
}

void expect_same_metrics(const analysis::PageMetrics& a, const analysis::PageMetrics& b) {
  EXPECT_EQ(a.site, b.site);
  EXPECT_EQ(a.h3_enabled, b.h3_enabled);
  EXPECT_EQ(a.plt_ms, b.plt_ms);
  EXPECT_EQ(a.total_entries, b.total_entries);
  EXPECT_EQ(a.cdn_entries, b.cdn_entries);
  EXPECT_EQ(a.h2_entries, b.h2_entries);
  EXPECT_EQ(a.h3_entries, b.h3_entries);
  EXPECT_EQ(a.other_entries, b.other_entries);
  EXPECT_EQ(a.h2_cdn_entries, b.h2_cdn_entries);
  EXPECT_EQ(a.h3_cdn_entries, b.h3_cdn_entries);
  EXPECT_EQ(a.other_cdn_entries, b.other_cdn_entries);
  EXPECT_EQ(a.reused_connections, b.reused_connections);
  EXPECT_EQ(a.resumed_connections, b.resumed_connections);
  EXPECT_EQ(a.connections_created, b.connections_created);
  EXPECT_EQ(a.provider_counts, b.provider_counts);
  EXPECT_EQ(a.provider_h3_counts, b.provider_h3_counts);
  EXPECT_EQ(a.cdn_domains, b.cdn_domains);
}

// Each visit carries LocEdge's verdicts over its own archive, classified in
// its sweep cell: the same as classifying the archive afterwards, at any
// job count.
TEST(ParallelStudy, StoredPageMetricsMatchTheArchiveAtAnyJobCount) {
  StudyConfig cfg = parallel_config(1);
  cfg.vantages.resize(2);
  const auto one = MeasurementStudy(cfg).run();
  cfg.jobs = 4;
  const auto four = MeasurementStudy(cfg).run();
  ASSERT_EQ(one.visits.size(), 3u * 2u * 2u * 2u);
  ASSERT_EQ(one.visits.size(), four.visits.size());
  for (std::size_t i = 0; i < one.visits.size(); ++i) {
    const auto& rec = one.visits[i];
    SCOPED_TRACE(rec.vantage + "/p" + std::to_string(rec.probe) + " site " +
                 std::to_string(rec.site_index) + (rec.h3_enabled ? " h3" : " h2"));
    EXPECT_GT(rec.metrics.total_entries, 0u);
    expect_same_metrics(rec.metrics,
                        analysis::compute_page_metrics(rec.har, locedge::Classifier{}));
    expect_same_metrics(rec.metrics, four.visits[i].metrics);
  }
}

TEST(ParallelStudy, AggregatesAndJsonExportAreIdenticalAcrossJobCounts) {
  const auto one = MeasurementStudy(parallel_config(1)).run();
  const auto four = MeasurementStudy(parallel_config(4)).run();
  // Byte-for-byte on the exports the paper tables are derived from.
  EXPECT_EQ(summary_to_json(one), summary_to_json(four));
  EXPECT_EQ(table2_to_csv(compute_table2(one)), table2_to_csv(compute_table2(four)));
  EXPECT_EQ(fig6_to_csv(compute_fig6(one)), fig6_to_csv(compute_fig6(four)));
}

TEST(ParallelStudy, ObservabilityArtifactsAreIdenticalAcrossJobCounts) {
  RunObservability obs_one;
  RunObservability obs_four;
  StudyConfig one_cfg = parallel_config(1);
  StudyConfig four_cfg = parallel_config(4);
  one_cfg.observability = &obs_one;
  four_cfg.observability = &obs_four;
  (void)MeasurementStudy(one_cfg).run();
  (void)MeasurementStudy(four_cfg).run();

  // Merged metrics snapshot, qlog document (stable per-shard connection ids)
  // and waterfalls must not depend on thread scheduling. profile.json is
  // host wall-clock and is deliberately out of the contract.
  EXPECT_EQ(obs::metrics_to_json(obs_one.metrics()), obs::metrics_to_json(obs_four.metrics()));
  EXPECT_EQ(obs::to_qlog_json(obs_one.traces()), obs::to_qlog_json(obs_four.traces()));
  EXPECT_EQ(obs::waterfalls_to_json(obs_one.waterfalls()),
            obs::waterfalls_to_json(obs_four.waterfalls()));
  // The critical-path attribution is derived from the waterfalls, so it must
  // inherit the same determinism — byte for byte, including H2/H3 pairing.
  EXPECT_EQ(obs::attribution_to_json(obs::attribute_pages(obs_one.waterfalls())),
            obs::attribution_to_json(obs::attribute_pages(obs_four.waterfalls())));
}

TEST(ParallelStudy, TimelineArtifactsAreIdenticalAcrossJobCounts) {
  // The time-resolved artifacts join the byte-identity contract: the
  // bucket-wise shard merge makes timeline.json/csv, slo.json, and the
  // Chrome-trace export independent of thread scheduling.
  RunObservability obs_one;
  RunObservability obs_four;
  StudyConfig one_cfg = parallel_config(1);
  StudyConfig four_cfg = parallel_config(4);
  one_cfg.observability = &obs_one;
  four_cfg.observability = &obs_four;
  (void)MeasurementStudy(one_cfg).run();
  (void)MeasurementStudy(four_cfg).run();

  EXPECT_GT(obs_one.timeline().series_count(), 0u);
  EXPECT_GT(obs_one.timeline().span_buckets(), 0);
  EXPECT_EQ(obs::timeline_to_json(obs_one.timeline()),
            obs::timeline_to_json(obs_four.timeline()));
  EXPECT_EQ(obs::timeline_to_csv(obs_one.timeline()),
            obs::timeline_to_csv(obs_four.timeline()));
  const auto slo = obs::default_slo_objectives();
  EXPECT_EQ(obs::slo_to_json(obs_one.timeline(), obs::evaluate_slos(obs_one.timeline(), slo)),
            obs::slo_to_json(obs_four.timeline(), obs::evaluate_slos(obs_four.timeline(), slo)));
  EXPECT_EQ(obs::to_chrome_trace_json(obs_one.waterfalls(), &obs_one.traces()),
            obs::to_chrome_trace_json(obs_four.waterfalls(), &obs_four.traces()));
}

TEST(ParallelStudy, DissectionIsIdenticalAcrossJobCounts) {
  const auto one = MeasurementStudy(parallel_config(1)).run();
  const auto four = MeasurementStudy(parallel_config(4)).run();
  const auto d_one = compute_plt_dissection(one);
  const std::string csv = dissection_to_csv(d_one);
  EXPECT_EQ(csv, dissection_to_csv(compute_plt_dissection(four)));

  // The provider rows are the CSV's only container-ordered section; the
  // export contract pins them to canonical sorted-by-name order so the file
  // is stable across library versions, not just across --jobs.
  std::vector<std::string> groups;
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) groups.push_back(line.substr(0, line.find(',')));
  ASSERT_EQ(groups.size(), 1 + d_one.by_vantage.size() + d_one.by_provider.size());
  for (std::size_t i = groups.size() - d_one.by_provider.size() + 1; i < groups.size(); ++i) {
    EXPECT_LT(groups[i - 1], groups[i]) << "provider rows not in canonical sorted order";
  }
}

TEST(ParallelStudy, TraceTracksAreLabelledPerRunAndMergedInShardOrder) {
  RunObservability obs;
  StudyConfig cfg = parallel_config(4);
  cfg.observability = &obs;
  const auto result = MeasurementStudy(cfg).run();
  // Each of the 12 runs opens its pool track first, then its connection
  // tracks "<vantage>/p<probe>/<h2|h3>/<domain>/<proto>#<n>" numbered from 1;
  // shards merge in canonical (vantage, probe, mode) order.
  std::vector<std::string> runs;
  std::vector<std::size_t> traced;  // connection tracks per run
  std::size_t next = 0;
  const std::string pool_suffix = "/pool";
  for (const obs::TraceTrack& t : obs.traces().tracks()) {
    if (t.label.size() > pool_suffix.size() &&
        t.label.compare(t.label.size() - pool_suffix.size(), pool_suffix.size(), pool_suffix) ==
            0) {
      runs.push_back(t.label.substr(0, t.label.size() - pool_suffix.size()));
      traced.push_back(0);
      next = 1;
      continue;
    }
    ASSERT_FALSE(runs.empty()) << "connection track before any pool track: " << t.label;
    EXPECT_EQ(t.label.rfind(runs.back() + "/", 0), 0u) << t.label;
    const std::string number = "#" + std::to_string(next++);
    EXPECT_EQ(t.label.substr(t.label.size() - number.size()), number) << t.label;
    EXPECT_FALSE(t.events.empty()) << t.label;
    ++traced.back();
  }
  std::vector<std::string> expected;
  std::vector<std::uint64_t> connections;  // per run, in the same order
  for (const auto& v : browser::default_vantage_points()) {
    for (int probe = 0; probe < 2; ++probe) {
      for (const bool h3 : {false, true}) {
        expected.push_back(v.name + "/p" + std::to_string(probe) + (h3 ? "/h3" : "/h2"));
        std::uint64_t n = 0;
        for (const auto& rec : result.visits) {
          if (rec.vantage == v.name && rec.probe == probe && rec.h3_enabled == h3) {
            n += rec.har.connections_created;
          }
        }
        connections.push_back(n);
      }
    }
  }
  ASSERT_EQ(runs, expected);
  // 12 shards split the 256-track cap: 22 each. Every connection past a
  // run's share runs untraced and is counted in obs.traces_dropped.
  const std::size_t share = (obs::TraceLog::kMaxConnectionTracks + 11) / 12;
  std::uint64_t refused = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(traced[i], std::min<std::uint64_t>(connections[i], share)) << runs[i];
    refused += connections[i] - traced[i];
  }
  EXPECT_GT(refused, 0u);  // the cap binds in this configuration
  EXPECT_EQ(obs.metrics().counter("obs.traces_dropped").value(), refused);
}

TEST(ParallelStudy, MergedMetricsCoverEveryShard) {
  RunObservability obs;
  StudyConfig cfg = parallel_config(4);
  cfg.observability = &obs;
  const auto result = MeasurementStudy(cfg).run();
  // One waterfall per visit (no cap set) and nonzero traffic counters prove
  // every shard's sink made it into the merged run-level one.
  EXPECT_EQ(obs.waterfalls().size(), result.visits.size());
  EXPECT_GT(obs.metrics().counter("net.link.packets_offered").value(), 0u);
  EXPECT_GT(obs.metrics().counter("tls.tickets.stored").value(), 0u);
}

TEST(ParallelStudy, DefaultJobsMatchesExplicitJobs) {
  // jobs=0 (hardware concurrency) runs the same sharded path.
  const auto zero = MeasurementStudy(parallel_config(0)).run();
  const auto one = MeasurementStudy(parallel_config(1)).run();
  EXPECT_EQ(summary_to_json(zero), summary_to_json(one));
}

TEST(ParallelStudyDeathTest, TicketStoreAbortsWhenSharedAcrossThreads) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // The satellite audit's executable form: shard-local state touched from a
  // second thread must abort, not race.
  EXPECT_DEATH(
      {
        tls::SessionTicketStore store;
        store.store(tls::SessionTicket{"a.example", msec(0)});
        std::thread other([&] { (void)store.find("a.example", msec(1)); });
        other.join();
      },
      "shard-local object touched from a second thread");
}

}  // namespace
}  // namespace h3cdn::core
