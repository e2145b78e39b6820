// Parameterized matrix over the pool's protocol-selection space: browser
// H3 switch x origin capabilities x coalescing, checking the negotiated
// protocol, connection counts, and reuse accounting at every point.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "http/pool.h"
#include "net/path.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace h3cdn::http {
namespace {

struct MatrixParam {
  bool h3_enabled;
  bool origin_h3;
  bool origin_h2;
  bool coalesced;
};

std::ostream& operator<<(std::ostream& os, const MatrixParam& p) {
  return os << "h3btn" << p.h3_enabled << "_oh3" << p.origin_h3 << "_oh2" << p.origin_h2
            << "_co" << p.coalesced;
}

class PoolMatrix : public ::testing::TestWithParam<MatrixParam> {
 protected:
  HttpVersion expected_version() const {
    const auto& p = GetParam();
    if (!p.origin_h2) return HttpVersion::H1_1;
    if (p.h3_enabled && p.origin_h3) return HttpVersion::H3;
    return HttpVersion::H2;
  }
};

TEST_P(PoolMatrix, NegotiatesTheRightProtocolAndCompletes) {
  const auto& p = GetParam();
  sim::Simulator sim;
  net::NetPath path(sim, net::PathConfig{msec(20), 100e6, 0.0, usec(0)}, util::Rng(1));
  std::map<std::string, OriginInfo> origins;
  for (const char* d : {"a.prov.example", "b.prov.example"}) {
    OriginInfo info;
    info.path = &path;
    info.supports_h3 = p.origin_h3;
    info.supports_h2 = p.origin_h2;
    if (p.coalesced) info.coalesce_key = "h2-coalesce:prov";
    origins[d] = info;
  }
  PoolConfig config;
  config.h3_enabled = p.h3_enabled;
  obs::MetricsRegistry metrics;
  obs::ScopedMetrics scope(&metrics);
  ConnectionPool pool(sim, config, [&](const std::string& d) { return origins.at(d); },
                      nullptr, util::Rng(2));

  std::vector<EntryTimings> out;
  for (const char* d : {"a.prov.example", "b.prov.example"}) {
    for (int i = 0; i < 3; ++i) {
      Request r;
      r.domain = d;
      r.response_bytes = 8'000;
      r.server_think = msec(2);
      pool.fetch(r, [&](const EntryTimings& t) { out.push_back(t); });
    }
  }
  sim.run();
  ASSERT_EQ(out.size(), 6u);
  for (const auto& t : out) EXPECT_EQ(t.version, expected_version());

  // Connection-count algebra for each corner of the matrix.
  auto connections = [&](const char* version) {
    return metrics.counter(std::string("http.pool.connections.") + version).value();
  };
  if (expected_version() == HttpVersion::H1_1) {
    // 3 concurrent per domain, under the 6-per-origin cap.
    EXPECT_EQ(connections("h1"), 6u);
  } else if (expected_version() == HttpVersion::H3) {
    EXPECT_EQ(connections("h3"), 2u);  // never coalesces
  } else if (p.coalesced) {
    EXPECT_EQ(connections("h2"), 1u);  // one shared connection
  } else {
    EXPECT_EQ(connections("h2"), 2u);  // per-domain
  }

  // Reuse accounting: entries minus initiators ride existing connections.
  std::size_t initiators = 0;
  for (const auto& t : out) initiators += t.new_connection_initiator;
  EXPECT_EQ(initiators, static_cast<std::size_t>(pool.stats().connections_created));
  for (const auto& t : out) {
    if (!t.new_connection_initiator) {
      EXPECT_TRUE(t.reused_connection);
      EXPECT_EQ(t.connect, Duration::zero());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SelectionMatrix, PoolMatrix,
    ::testing::Values(MatrixParam{true, true, true, false}, MatrixParam{true, true, true, true},
                      MatrixParam{true, false, true, false}, MatrixParam{true, false, true, true},
                      MatrixParam{false, true, true, false}, MatrixParam{false, true, true, true},
                      MatrixParam{true, false, false, false},
                      MatrixParam{false, false, false, false}),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

}  // namespace
}  // namespace h3cdn::http
