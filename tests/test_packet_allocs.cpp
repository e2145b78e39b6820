// Heap allocations on the packet path, counted.
//
// This executable replaces the global operator new/delete with versions that
// count each allocation and forward to malloc/free, so a test can read how
// many heap blocks a stretch of simulation asked for. A packet crossing a
// chained NetPath (access link, then path link) must ask for none once the
// Simulator's arena has grown; a bulk Connection transfer may ask for one
// per data packet sent, the node that records it in flight.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/link.h"
#include "net/path.h"
#include "sim/simulator.h"
#include "transport/connection.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc_or_throw(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace h3cdn {
namespace {

TEST(PacketAllocs, CounterSeesAHeapBlock) {
  const std::uint64_t before = allocs();
  auto* block = new std::uint64_t(1);
  EXPECT_EQ(allocs(), before + 1);
  delete block;
}

// 10k packets with a 48-byte capture cross a NetPath with access links in
// both directions. The second round reuses the arena slots, heap entries and
// free list the first round grew, so it allocates nothing at all.
TEST(PacketAllocs, ChainedNetPathAllocatesNothingAfterWarmUp) {
  sim::Simulator sim;
  net::PathConfig pc;
  pc.rtt = msec(20);
  pc.bandwidth_bps = 100e6;
  pc.jitter_max = usec(50);
  net::NetPath path(sim, pc, util::Rng(1));
  net::LinkConfig ac;
  ac.latency = msec(1);
  ac.bandwidth_bps = 1e9;
  net::Link access_up(sim, ac, util::Rng(2));
  net::Link access_down(sim, ac, util::Rng(3));
  path.attach_access(&access_up, &access_down);

  std::uint64_t delivered = 0;
  std::uint64_t checksum = 0;
  auto round = [&] {
    for (std::uint64_t i = 0; i < 5'000; ++i) {
      const std::uint64_t a = i, b = i * 3, c = i * 5, d = i * 7;
      auto up = [&delivered, &checksum, a, b, c, d] {
        ++delivered;
        checksum += a + b + c + d;
      };
      static_assert(sizeof(up) == 48);
      static_assert(sim::SmallFn::fits_inline<decltype(up)>());
      path.send_up(1200, up, /*lossless=*/false, net::PacketClass::Udp);
      path.send_down(1200, up);
    }
    sim.run();
  };

  round();
  const std::uint64_t before = allocs();
  round();
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(delivered, 20'000u);
  EXPECT_GT(checksum, 0u);
}

struct Transfer {
  std::uint64_t packets_sent = 0;
  std::uint64_t allocs = 0;
};

// One 4 MB response over a chained path, twice on one Simulator. The first
// transfer grows the scheduler's arena and heap to the transfer's peak. The
// second is counted once its handshake and request are done and 300 response
// packets have left, so its stream table is set up too.
Transfer bulk_transfer(tls::TransportKind kind) {
  sim::Simulator sim;
  net::NetPath path(sim, net::PathConfig{msec(20), 100e6, 0.0, usec(0)}, util::Rng(42));
  net::LinkConfig ac;
  ac.latency = msec(1);
  ac.bandwidth_bps = 1e9;
  net::Link access_up(sim, ac, util::Rng(43));
  net::Link access_down(sim, ac, util::Rng(44));
  path.attach_access(&access_up, &access_down);

  transport::TransportConfig config;
  config.domain = "bulk.example";
  Transfer t;
  for (int round = 0; round < 2; ++round) {
    auto conn = transport::Connection::create(sim, path, kind, tls::TlsVersion::Tls13,
                                              tls::HandshakeMode::Fresh, util::Rng(7), config);
    bool complete = false;
    conn->connect([](TimePoint) {});
    transport::FetchCallbacks callbacks;
    callbacks.on_complete = [&complete](TimePoint) { complete = true; };
    conn->fetch(300, 4'000'000, msec(1), std::move(callbacks));

    while (conn->stats().packets_sent < 300 && !sim.idle()) sim.run_until(sim.now() + msec(1));
    EXPECT_FALSE(complete);
    const std::uint64_t packets_before = conn->stats().packets_sent;
    const std::uint64_t allocs_before = allocs();
    sim.run();
    t.allocs = allocs() - allocs_before;
    t.packets_sent = conn->stats().packets_sent - packets_before;
    EXPECT_TRUE(complete);
  }
  return t;
}

TEST(PacketAllocs, TcpBulkTransferAllocatesAtMostTheInFlightNode) {
  const Transfer t = bulk_transfer(tls::TransportKind::Tcp);
  EXPECT_GT(t.packets_sent, 1'000u);
  EXPECT_LE(t.allocs, t.packets_sent);
}

TEST(PacketAllocs, QuicBulkTransferAllocatesAtMostTheInFlightNode) {
  const Transfer t = bulk_transfer(tls::TransportKind::Quic);
  EXPECT_GT(t.packets_sent, 1'000u);
  EXPECT_LE(t.allocs, t.packets_sent);
}

}  // namespace
}  // namespace h3cdn
