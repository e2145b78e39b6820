// Browser-style connection pool.
//
// Reproduces the connection-management rules that drive the paper's Fig. 7
// (connection reuse) and Fig. 8 (resumption):
//   * one multiplexed H2 connection per origin, one H3 connection per origin;
//   * up to 6 parallel H1.1 keep-alive connections per origin;
//   * protocol choice per request: H3 when the browser has QUIC enabled AND
//     the origin advertises H3 (Alt-Svc), otherwise H2, or H1.1 for legacy
//     origins — so with partial H3 adoption a provider's traffic splits
//     across an H3 and an H2 connection, exactly the reuse-dilution effect
//     the paper identifies in §VI-C;
//   * handshake mode chosen from the shared SessionTicketStore, so tickets
//     from earlier visits turn into resumed/0-RTT connections (§VI-D).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "http/session.h"
#include "http/types.h"
#include "net/path.h"
#include "obs/trace_log.h"
#include "resilience/engine.h"
#include "sim/simulator.h"
#include "tls/ticket_store.h"
#include "transport/connection.h"
#include "util/rng.h"

namespace h3cdn::http {

/// What the "network + server" side reports about an origin at dial time.
struct OriginInfo {
  net::NetPath* path = nullptr;      // must outlive the pool
  bool supports_h2 = true;           // false => HTTP/1.1-only legacy origin
  bool supports_h3 = false;          // advertises Alt-Svc h3
  tls::TlsVersion tls_version = tls::TlsVersion::Tls13;  // for TCP connections
  // H2 connection-coalescing group (RFC 7540 §9.1.1): origins sharing a
  // certificate/IP (a giant CDN's hostnames) report the same non-empty key
  // and share one H2 connection. Empty => the domain itself is the key.
  // QUIC connections never coalesce here (matching 2022 deployments).
  std::string coalesce_key;
  // Server-capacity admission hooks, wired by the environment to the origin's
  // EdgeServer when its capacity model is enabled (see docs/LOAD.md). Copied
  // into each new connection's TransportConfig; empty => idle server.
  std::function<std::optional<Duration>(TimePoint, tls::TransportKind, tls::HandshakeMode)>
      handshake_admission;
  std::function<void()> connection_release;
  // DNS failover hook (docs/RESILIENCE.md). When set, a non-refused
  // connection death fires this AND invalidates the pool's cached OriginInfo,
  // so the next dial re-resolves — the environment demotes the current
  // address's health and hands back a path to the next healthy record.
  // Refusals do not fire it: capacity pushback is not a path failure.
  std::function<void(TimePoint)> connection_failed;
};

using Resolver = std::function<OriginInfo(const std::string& domain)>;

/// Computes server processing ("think") time once the protocol is known.
/// Wired to the CDN edge-server model; may be empty (use Request's value).
using ThinkTimeFn = std::function<Duration(const Request&, HttpVersion)>;

/// Produces the server-side response gate for a request once the protocol is
/// known (transport/server_hold.h). Wired to the relay chain for domains
/// routed through topology hops; returning an empty ServerHold keeps the
/// direct synchronous-think path.
using ServerHoldFactory = std::function<transport::ServerHold(const Request&, HttpVersion)>;

struct PoolConfig {
  bool h3_enabled = true;  // Chrome's --enable-quic switch
  // Optional per-origin protocol override (e.g. core::AdaptiveProtocolSelector).
  // Consulted after capability checks; incompatible hints are ignored.
  std::function<std::optional<HttpVersion>(const std::string& domain)> protocol_hint;
  // Ablation switch: when false, resumed QUIC connections never send 0-RTT
  // early data (isolates the paper's §VI-D resumption mechanism).
  bool allow_zero_rtt = true;
  std::size_t h1_max_connections_per_origin = 6;
  SessionConfig session;
  transport::TransportConfig transport;
  ThinkTimeFn think_time;
  // Applied wherever think_time is (initial dispatch and rescue re-routes),
  // so a rescued request re-routed to the direct path sheds its stale hold.
  ServerHoldFactory server_hold;
  // Graceful degradation (docs/FAULTS.md §3). When an H3 connection dies the
  // pool marks the host "H3 broken" for h3_broken_ttl (Chrome's Alt-Svc
  // brokenness window is ~5 minutes), re-submits the stranded requests over
  // H2, and routes new requests straight to H2 until a timed re-probe.
  bool h3_fallback_enabled = true;
  Duration h3_broken_ttl = sec(300);
  // Dispatch attempts per request across connection deaths; beyond this the
  // entry completes with EntryTimings::failed = true.
  int max_request_retries = 3;
  // Retry backoff after a server admission refusal (ConnectionError::Refused):
  // orphans are re-dialled on the SAME protocol (a refusal says "busy", not
  // "broken") after base * 2^(attempts-1), jittered by up to +refusal_backoff_jitter
  // so a refused thundering herd does not re-arrive in lockstep.
  Duration refusal_backoff_base = msec(50);
  double refusal_backoff_jitter = 0.5;
  // Tracing (obs/trace_log.h). With a non-empty label, every new connection
  // records into a track "<trace_label>/<domain>/<proto>#<n>" of the
  // installed registry's TraceLog; past the log's cap it runs untraced and
  // counts obs.traces_dropped. Fault/recovery events (FallbackTriggered,
  // H3BrokenMarked, H3ReProbe) go to `trace_bus`, the run's pool track.
  std::string trace_label;
  obs::TraceHandle trace_bus;
  // Request-lifecycle resilience engine (docs/RESILIENCE.md). Null — the
  // default — reproduces the pre-resilience pool behaviour bit-for-bit.
  // Non-null and enabled() adds retry backoff with budgets, hedged requests,
  // Range resumption of partial bodies, and per-edge circuit breakers on top
  // of the baseline rescue logic. Owned by the caller (the Browser), so state
  // persists across the per-page pools of a visit.
  resilience::Engine* resilience = nullptr;
};

struct PoolStats {
  std::uint64_t connections_created = 0;
  std::uint64_t resumed_connections = 0;   // Resumed or ZeroRtt handshakes
  std::uint64_t zero_rtt_connections = 0;
  // Fault recovery (docs/FAULTS.md).
  std::uint64_t connection_deaths = 0;   // sessions whose transport died
  std::uint64_t h3_fallbacks = 0;        // H3 deaths degraded to H2
  std::uint64_t requests_rescued = 0;    // orphans transparently re-submitted
  std::uint64_t requests_failed = 0;     // orphans past the retry budget
  // Server-capacity admission (docs/LOAD.md).
  std::uint64_t connections_refused = 0;  // dials refused by server admission
  std::uint64_t refusal_retries = 0;      // orphans re-dialled after backoff
};

class ConnectionPool {
 public:
  /// `tickets` may be null (no resumption state, every handshake fresh).
  ConnectionPool(sim::Simulator& sim, PoolConfig config, Resolver resolver,
                 tls::SessionTicketStore* tickets, util::Rng rng);

  /// Routes a request to the right session (creating connections on demand).
  void fetch(const Request& request, FetchDone done);

  /// Terminates every connection (the paper terminates all connections after
  /// each page visit).
  void close_all();

  [[nodiscard]] const PoolStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t session_count() const;

  /// Protocol the pool would pick for this origin right now (exposed for the
  /// adaptive-selection example and for tests).
  [[nodiscard]] HttpVersion protocol_for(const OriginInfo& origin) const;

  /// Whether the host is currently marked "H3 broken" (side effect: an
  /// expired mark is cleared and counted as a re-probe).
  [[nodiscard]] bool h3_broken(const std::string& domain);

 private:
  struct OriginState {
    std::optional<OriginInfo> info;
    std::shared_ptr<Session> h3;
    std::vector<std::shared_ptr<Session>> h1;
  };

  OriginState& origin_state(const std::string& domain);
  std::shared_ptr<Session> make_session(const std::string& domain, const OriginInfo& origin,
                                        HttpVersion version);
  std::shared_ptr<Session> h1_session(const std::string& domain, OriginState& state);
  std::shared_ptr<Session> session_for(const std::string& domain, OriginState& state,
                                       HttpVersion version);
  void on_session_dead(const std::string& domain, HttpVersion version,
                       const std::shared_ptr<Session>& session, transport::ConnectionError error,
                       std::vector<Session::Orphan> orphans);
  void route_rescue(Session::Orphan orphan, HttpVersion preferred);
  void record_fault(obs::TraceEventType type, obs::FaultKind fault);
  /// The resilience engine, or nullptr when absent or disabled.
  [[nodiscard]] resilience::Engine* engine() const;
  /// Wraps `done` with hedging (first-wins arbitration + p95-trigger timer)
  /// and breaker/latency bookkeeping. Engine must be enabled.
  FetchDone with_resilience(const Request& routed, HttpVersion version, FetchDone done);
  /// Fails one orphan with typed timings. Reason must not be None.
  void fail_orphan(Session::Orphan orphan, HttpVersion version, FailureReason reason);

  sim::Simulator& sim_;
  PoolConfig config_;
  Resolver resolver_;
  tls::SessionTicketStore* tickets_;
  util::Rng rng_;
  std::unordered_map<std::string, OriginState> origins_;
  // H2 sessions keyed by coalescing group (or domain when not coalescable).
  std::unordered_map<std::string, std::shared_ptr<Session>> h2_sessions_;
  // Hosts whose H3 died: no H3 dials until the deadline passes (Alt-Svc
  // brokenness, Chrome behaviour).
  std::unordered_map<std::string, TimePoint> h3_broken_until_;
  PoolStats stats_;
  TimePoint created_at_{0};  // page start, for the resilience page budget
  // Liveness token for deferred work (backoff rescues, hedge timers): those
  // simulator events capture the raw pool pointer, and with hedging a
  // duplicate copy's rescue can legitimately outlive the pool (its logical
  // entry settled via the other copy, the page finished, the Browser dropped
  // the pool). Deferred lambdas hold a weak copy and no-op once it expires.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
};

}  // namespace h3cdn::http
