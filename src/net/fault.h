// Network fault injection: bursty (Gilbert-Elliott) loss, scheduled link
// outages (hard blackouts and UDP-only blackholes), and transient RTT-spike
// episodes.
//
// The baseline Link models netem-style i.i.d. Bernoulli loss, which is what
// the paper's Fig. 9 experiments inject. Real CDN paths misbehave in richer
// ways: loss arrives in bursts (Gilbert-Elliott is the standard two-state
// model for it), middleboxes silently blackhole UDP while TCP still flows
// (the failure mode Chrome's H3->H2 fallback exists for), links go hard down
// for a while, and bufferbloat/rerouting causes transient RTT spikes. A
// FaultInjector attaches to a Link and layers these on top of the baseline
// Bernoulli model. Every draw comes from a dedicated deterministic Rng
// stream, so paired A/B runs see byte-identical fault schedules.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace h3cdn::net {

/// Transport class of a packet, as seen by middleboxes. QUIC connections tag
/// everything they send (data, handshake, ACKs) as Udp; TCP connections as
/// Tcp. UDP-only blackholes drop the former and pass the latter.
enum class PacketClass { Tcp, Udp };

/// Why a packet was dropped: selects the `net.link.dropped.*` counter.
enum class DropReason {
  None,       // delivered
  Bernoulli,  // i.i.d. draw (Link's baseline loss or the GE good state)
  Burst,      // Gilbert-Elliott bad-state draw
  Outage,     // scheduled blackout / UDP blackhole interval
};

const char* to_string(DropReason r);

/// Two-state Markov loss model (Gilbert-Elliott). The chain transitions once
/// per offered packet; each state has its own drop probability. The classic
/// Gilbert special case is loss_good = 0, loss_bad = 1.
struct GilbertElliottConfig {
  bool enabled = false;
  double p_good_to_bad = 0.0;  // per-packet transition probability
  double p_bad_to_good = 1.0;
  double loss_good = 0.0;  // drop probability while in Good
  double loss_bad = 1.0;   // drop probability while in Bad

  /// Stationary average loss rate of the chain.
  [[nodiscard]] double average_loss() const;

  /// Classic Gilbert parameterization from a target average loss rate and a
  /// mean burst length in packets (the expected Bad-state dwell time).
  /// Requires 0 <= average < 1 and mean_burst_packets >= 1.
  static GilbertElliottConfig from_average(double average, double mean_burst_packets);

  /// Degenerate single-state chain: i.i.d. Bernoulli at `rate` routed through
  /// the injector (lets experiments compare Bernoulli vs bursty loss at equal
  /// average rate through the exact same code path and Rng stream).
  static GilbertElliottConfig bernoulli(double rate);
};

enum class OutageKind {
  Hard,          // everything on the link is dropped, TCP and UDP alike
  UdpBlackhole,  // only PacketClass::Udp traffic is dropped (QUIC blackhole)
};

/// A scheduled down interval [start, start + duration).
struct Outage {
  TimePoint start{0};
  Duration duration{0};
  OutageKind kind = OutageKind::Hard;

  [[nodiscard]] bool covers(TimePoint t) const {
    return t >= start && t < start + duration;
  }
};

/// A transient latency episode: packets offered inside [start, start +
/// duration) incur `extra_delay` of additional one-way latency.
struct RttSpike {
  TimePoint start{0};
  Duration duration{0};
  Duration extra_delay{0};

  [[nodiscard]] bool covers(TimePoint t) const {
    return t >= start && t < start + duration;
  }
};

/// Everything a link can be afflicted with. Plain data: profiles are built by
/// experiment configs and handed to links/paths/environments.
struct FaultProfile {
  GilbertElliottConfig gilbert_elliott;
  std::vector<Outage> outages;
  std::vector<RttSpike> rtt_spikes;

  [[nodiscard]] bool empty() const {
    return !gilbert_elliott.enabled && outages.empty() && rtt_spikes.empty();
  }
};

/// Per-link fault decision engine. One injector serves one Link (one
/// direction); NetPath forks one per direction from a single profile so the
/// burst chains of the two directions stay independent streams.
class FaultInjector {
 public:
  FaultInjector(FaultProfile profile, util::Rng rng);

  struct Verdict {
    DropReason drop = DropReason::None;
    Duration extra_delay{0};  // RTT-spike contribution (when delivered)
  };

  /// Decides the fate of one offered packet at simulated time `now`.
  /// `lossless` packets (the reliable out-of-band control model) are exempt
  /// from stochastic loss but NOT from outages: a dead link delivers nothing,
  /// and a UDP blackhole eats a QUIC connection's ACKs like any other datagram.
  Verdict apply(TimePoint now, PacketClass pclass, bool lossless);

  void add_outage(const Outage& outage) { profile_.outages.push_back(outage); }
  void add_rtt_spike(const RttSpike& spike) { profile_.rtt_spikes.push_back(spike); }

  [[nodiscard]] const FaultProfile& profile() const { return profile_; }
  [[nodiscard]] bool in_bad_state() const { return ge_bad_; }

 private:
  FaultProfile profile_;
  util::Rng rng_;
  bool ge_bad_ = false;
};

}  // namespace h3cdn::net
