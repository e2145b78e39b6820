// Simulated secure transport connection (TCP+TLS for HTTP/2, QUIC for
// HTTP/3) carrying multiplexed request/response streams over a NetPath.
//
// One Connection object simulates *both* endpoints: the client half (request
// sending, response reassembly, timing capture) and the server half (request
// reassembly, think time, response sending). This avoids a distributed
// split-endpoint design while still putting every byte through the lossy,
// bandwidth-limited links.
//
// The two transport kinds share everything except the properties the paper
// studies:
//   * handshake round trips      (tls::handshake_rtts: 2-3 RTT vs 1/0 RTT)
//   * delivery ordering          (TCP: connection-level byte order => a lost
//     packet blocks ALL later data = head-of-line blocking; QUIC: per-stream
//     order => a lost packet blocks only its own stream)
// Loss detection (packet threshold + RTO) and congestion control are shared
// so that measured differences are attributable to the mechanisms above.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/path.h"
#include "obs/trace_log.h"
#include "sim/simulator.h"
#include "tls/handshake.h"
#include "tls/ticket_store.h"
#include "transport/congestion.h"
#include "transport/rtt_estimator.h"
#include "transport/server_hold.h"
#include "util/rng.h"
#include "util/types.h"

namespace h3cdn::transport {

using StreamId = std::uint64_t;

/// Terminal failure reason of a connection (see docs/FAULTS.md §2). A dead
/// connection has closed itself, told its owner via the on_dead callback, and
/// will never complete its remaining streams.
enum class ConnectionError {
  None,
  HandshakeTimeout,  // handshake retransmissions exhausted
  Blackhole,         // consecutive RTOs with no ACK on a ready connection
  Refused,           // server admission refused the handshake (edge at capacity)
  Killed,            // scripted mid-transfer kill (chaos harness, docs/RESILIENCE.md)
};

const char* to_string(ConnectionError e);

struct TransportConfig {
  // Max payload bytes per packet. Equal by default: the congestion window
  // is counted in packets, so unequal MSS would act as a hidden throughput
  // bias; the real wire-efficiency gap lives in the overhead constants.
  std::size_t mss_tcp = 1350;
  std::size_t mss_quic = 1350;
  // Per-packet wire overhead (IP + transport + record/AEAD framing).
  std::size_t overhead_tcp = 60;
  std::size_t overhead_quic = 62;
  std::size_t ack_bytes = 70;
  std::size_t handshake_client_packet_bytes = 120;
  std::size_t handshake_small_flight_bytes = 80;

  CcConfig cc;
  // Loss-recovery floors differ by transport and this asymmetry is real:
  // Linux TCP clamps RTO at 200 ms (RTO_MIN), while QUIC's PTO has only a
  // millisecond-granularity floor (RFC 9002 kGranularity + max_ack_delay).
  // Tail losses therefore stall a TCP connection — and, via head-of-line
  // blocking, every H2 stream on it — far longer than a QUIC stream.
  Duration min_rto_tcp = msec(200);
  Duration min_rto_quic = msec(30);
  Duration pto_ack_delay_quic = msec(25);  // RFC 9002 max_ack_delay in the PTO
  Duration max_rto = sec(10);
  // Packets are declared lost when `reorder_threshold` later packets have
  // been acknowledged (RFC 9002 kPacketThreshold = 3).
  std::uint64_t reorder_threshold = 3;

  // 0 => derived as max(2 * path RTT, 100ms); doubles per retry.
  Duration handshake_timeout = Duration::zero();
  // Handshake retransmissions before giving up with
  // ConnectionError::HandshakeTimeout. With the doubling timer and the 250 ms
  // floor, 5 retries fire at ~0.25/0.75/1.75/3.75/7.75 s and the connection
  // dies at ~15.75 s — the regime of kernel SYN-retry budgets and Chrome's
  // connection timeout. <= 0 disables the cap (retry forever).
  int max_handshake_retries = 5;
  // Deadness detector for established connections: this many consecutive
  // RTO/PTO fires with no intervening ACK (either direction) means the path
  // is blackholed => ConnectionError::Blackhole. The exponential RTO backoff
  // makes this a bounded wall-clock budget (~2 s for QUIC's 30 ms floor,
  // ~13 s for TCP's 200 ms floor on short paths). <= 0 disables.
  int blackhole_rto_threshold = 6;

  // Stream scheduling. Mature H2 stacks honour the browser's fine-grained
  // priority tree (render-critical CSS/JS before images); 2022-era H3 stacks
  // implemented at best the coarse RFC 9218 urgency buckets — one reason
  // Cloudflare measured H3 "1-4% worse in PLT" (paper Table I). The pool
  // sets these per protocol. `priority_coarseness` divides the priority
  // value into buckets (1 = full fidelity, 3 = coarse urgency).
  bool respect_priorities = true;
  int priority_coarseness = 1;

  // Flow control (RFC 9000 §4; H2's WINDOW_UPDATE works the same way at
  // stream and connection scope). Senders never have more unacknowledged
  // *new* payload outstanding than the advertised windows; receivers grant
  // more credit as in-order data is consumed (half-window refresh). The
  // defaults mirror Chrome's and never bind in the study workloads; tests
  // shrink them to exercise the mechanism.
  std::size_t initial_stream_window = 6 * 1024 * 1024;
  std::size_t initial_connection_window = 15 * 1024 * 1024;

  // Domain this connection is to; carried into issued session tickets.
  std::string domain;

  // Server-capacity admission (see cdn::EdgeCapacityConfig). Consulted once
  // when the certificate-bearing handshake flight reaches the server: a
  // Duration admits the connection and adds accept-queue wait + handshake
  // CPU to the server's processing time; nullopt refuses it (the server
  // sends a small refusal flight and the client dies with
  // ConnectionError::Refused). Unset => always admitted for free.
  std::function<std::optional<Duration>(TimePoint, tls::TransportKind, tls::HandshakeMode)>
      handshake_admission;
  // Fires exactly once when an admitted connection closes, returning its
  // server concurrency slot.
  std::function<void()> connection_release;

  // Chaos fault (docs/RESILIENCE.md): when > 0, the connection dies with
  // ConnectionError::Killed as soon as its cumulative in-order-delivered
  // response payload crosses this byte offset — the scripted "connection cut
  // at byte N" scenario that exercises Range-based resumption. Fires at most
  // once per connection; 0 disables.
  std::size_t kill_response_at_bytes = 0;
};

/// Aggregate connection statistics for analysis and tests.
struct ConnectionStats {
  tls::HandshakeMode mode = tls::HandshakeMode::Fresh;
  TimePoint connect_start{-1};
  TimePoint ready_at{-1};
  Duration connect_time{-1};  // handshake duration; ~0 for 0-RTT
  int handshake_retries = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_declared_lost = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t rto_fires = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t bytes_sent = 0;  // payload bytes incl. retransmissions
  std::uint64_t streams_opened = 0;
  std::uint64_t flow_blocked_events = 0;  // sender stalled on a flow-control window
  std::uint64_t window_updates_sent = 0;
  // Response-direction delivery stalls (StreamStallSpan events), summed over
  // all streams. hol = blocked behind ANOTHER stream's gap (only possible on
  // TCP's connection-wide ordering); retx_wait = blocked on the stream's own
  // lost packet (both transports).
  Duration hol_stall_total{0};
  Duration retx_wait_total{0};
  std::uint64_t stall_spans = 0;
  // Connection-level flow-control starvation (FlowControlStallSpan events):
  // intervals where a direction had data + cwnd but no MAX_DATA credit.
  Duration flow_control_stall_total{0};
  std::uint64_t flow_control_stalls = 0;
  ConnectionError error = ConnectionError::None;  // set when the connection dies
};

/// Cumulative response-direction stall time of one stream, split by cause.
struct StreamStallTotals {
  Duration hol_stall{0};   // blocked behind another stream's gap (TCP HoL)
  Duration retx_wait{0};   // blocked on the stream's own retransmission
};

/// Per-fetch observer callbacks. All fire at client-side simulated times.
struct FetchCallbacks {
  std::function<void(TimePoint)> on_request_sent;  // last request byte written
  std::function<void(TimePoint)> on_first_byte;    // first in-order response byte
  std::function<void(TimePoint)> on_complete;      // response fully delivered
  // Server-side response gate (transport/server_hold.h). When set, the full
  // request arriving at the server invokes the hold instead of starting the
  // think timer; the hold's resume() adds its extra think on top of the
  // stream's server_think. Unset => the classic synchronous path.
  ServerHold on_server_request;
};

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  /// Creates a connection. `mode` is decided by the caller (browser) from its
  /// SessionTicketStore *before* dialing, mirroring how a real client picks
  /// resumption based on cached tickets.
  static std::shared_ptr<Connection> create(sim::Simulator& sim, net::NetPath& path,
                                            tls::TransportKind kind, tls::TlsVersion version,
                                            tls::HandshakeMode mode, util::Rng rng,
                                            TransportConfig config = {});

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Starts the handshake; `on_ready` fires when application data may flow.
  /// Must be called exactly once.
  void connect(std::function<void(TimePoint)> on_ready);

  /// Queues a request/response exchange on a fresh stream. `server_think` is
  /// the server-side processing time between the full request arriving and
  /// the first response byte being written. Legal before ready (data flushes
  /// once the handshake completes — and immediately for 0-RTT). `priority`
  /// orders response scheduling when respect_priorities is on (0 = most
  /// urgent; ties round-robin).
  StreamId fetch(std::size_t request_bytes, std::size_t response_bytes, Duration server_think,
                 FetchCallbacks callbacks, int priority = 3);

  /// Installs a sink receiving the session ticket the server issues once the
  /// handshake completes (wired to the browser's SessionTicketStore).
  void set_ticket_sink(std::function<void(tls::SessionTicket)> sink);

  /// Records qlog-style events into `trace`, one track of an obs::TraceLog
  /// (obs/trace_log.h). A null handle, the default, records nothing.
  void set_trace(obs::TraceHandle trace);

  /// Installs the death notification: fires at most once, after the
  /// connection has closed itself on a terminal error (handshake retries
  /// exhausted or blackhole detected). The owning session evacuates its
  /// streams from here.
  void set_on_dead(std::function<void(ConnectionError, TimePoint)> on_dead);

  /// Stops all timers and ignores any in-flight events. Idempotent.
  void close();

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] ConnectionError error() const { return stats_.error; }
  [[nodiscard]] bool dead() const { return stats_.error != ConnectionError::None; }
  [[nodiscard]] tls::TransportKind kind() const { return kind_; }
  [[nodiscard]] tls::TlsVersion tls_version() const { return version_; }
  [[nodiscard]] tls::HandshakeMode handshake_mode() const { return mode_; }
  [[nodiscard]] const ConnectionStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& domain() const { return config_.domain; }
  [[nodiscard]] std::size_t active_streams() const { return active_stream_count_; }
  [[nodiscard]] std::size_t mss() const;

  /// Cumulative response-direction stall time for one stream (zeros for
  /// unknown ids). Stream state persists past completion, so this is valid
  /// for post-hoc critical-path attribution (obs/critical_path.h).
  [[nodiscard]] StreamStallTotals stall_totals(StreamId sid) const;

  /// In-order response payload bytes delivered to the client for one stream
  /// (0 for unknown ids). Stream state persists past death, so a session can
  /// read this AFTER the connection died to compute an HTTP Range resume
  /// offset for the orphaned request (src/resilience/, docs/RESILIENCE.md).
  [[nodiscard]] std::size_t stream_bytes_received(StreamId sid) const;

  /// The annotation attached by a ServerHold's resume() (nullptr for unknown
  /// ids or un-held streams). Stream state persists past completion, so the
  /// owning session reads this at finalize time — the relay chain delivers
  /// per-hop upstream timings through it (src/topology/).
  [[nodiscard]] std::shared_ptr<void> stream_annotation(StreamId sid) const;

 private:
  Connection(sim::Simulator& sim, net::NetPath& path, tls::TransportKind kind,
             tls::TlsVersion version, tls::HandshakeMode mode, util::Rng rng,
             TransportConfig config);

  enum class Dir : std::size_t { Up = 0, Down = 1 };  // Up: client->server

  struct Chunk {
    StreamId stream = 0;
    std::size_t stream_offset = 0;
    std::size_t len = 0;
    std::size_t conn_offset = 0;  // TCP byte-stream position (dir-local)
  };

  struct SentPacket {
    Chunk chunk;
    TimePoint sent{0};
    bool is_retx = false;
  };

  struct ReceivedKeyLess {
    bool operator()(const std::pair<StreamId, std::size_t>& a,
                    const std::pair<StreamId, std::size_t>& b) const {
      return a < b;
    }
  };

  struct DirState {
    CongestionController cc;
    RttEstimator rtt;
    std::map<std::uint64_t, SentPacket> in_flight;  // by packet number
    std::deque<Chunk> retx_queue;
    // Streams with unsent data, bucketed by priority (respect_priorities) or
    // all in bucket 0 (round-robin). FIFO rotation within a bucket.
    std::map<int, std::deque<StreamId>> rr;
    std::uint64_t next_packet_num = 0;
    std::uint64_t largest_acked = 0;
    bool any_acked = false;
    std::size_t conn_bytes_assigned = 0;  // TCP sequence space allocator
    sim::EventId rto_timer = 0;
    // Flow control — sender view (limits raised by receiver grants):
    std::size_t conn_flow_limit = 0;   // set from config at construction
    // Flow control — receiver view:
    std::size_t conn_delivered = 0;    // in-order payload handed to the app
    std::size_t conn_granted = 0;      // credit advertised so far
    // Receiver side (the opposite endpoint) for this direction:
    std::size_t recv_next_conn = 0;               // TCP cumulative offset
    std::map<std::size_t, Chunk> conn_ooo;        // TCP out-of-order buffer
    // Open connection-flow-control stall span start (-1us = none): set when
    // the sender is starved of MAX_DATA credit, closed when credit arrives.
    TimePoint fc_stall_since{-1};
    DirState(CcConfig cc_cfg, Duration initial_rto, Duration min_rto, Duration max_rto,
             Duration rto_extra)
        : cc(cc_cfg), rtt(initial_rto, min_rto, max_rto, rto_extra) {}
  };

  struct StreamState {
    StreamId id = 0;
    int priority = 3;
    std::size_t req_size = 0;
    std::size_t resp_size = 0;
    Duration server_think{0};
    FetchCallbacks cb;
    TimePoint opened_at{0};
    // Sender-side progress
    std::size_t req_sent_offset = 0;
    std::size_t resp_sent_offset = 0;
    bool request_sent_reported = false;
    // Flow control (per stream, per direction): sender limit + granted credit
    std::size_t req_flow_limit = 0;
    std::size_t resp_flow_limit = 0;
    std::size_t req_granted = 0;
    std::size_t resp_granted = 0;
    // Receiver-side progress (in-order delivered bytes)
    std::size_t req_delivered = 0;
    std::size_t resp_delivered = 0;
    // QUIC per-stream reassembly
    std::size_t req_recv_next = 0;
    std::size_t resp_recv_next = 0;
    std::map<std::size_t, std::size_t> req_ooo;   // offset -> len
    std::map<std::size_t, std::size_t> resp_ooo;  // offset -> len
    bool response_active = false;
    bool first_byte_reported = false;
    bool done = false;
    // Response-stall accounting: while any of this stream's response bytes
    // sit undeliverable behind a gap, `stall_since` holds the span start
    // (-1us = no open span). Spans close when the blocking gap fills; totals
    // accumulate here and in ConnectionStats.
    TimePoint stall_since{-1};
    std::size_t stalled_bytes = 0;  // bytes parked while the span was open
    Duration hol_stall_total{0};
    Duration retx_wait_total{0};
    // Attached by a ServerHold resume(); surfaced via stream_annotation().
    std::shared_ptr<void> annotation;
  };

  DirState& dir(Dir d) { return *dirs_[static_cast<std::size_t>(d)]; }

  // --- handshake ---
  void start_handshake_attempt();
  void handshake_step_done(std::uint64_t generation);
  void finish_handshake();
  Duration handshake_timeout_now() const;

  // --- data path ---
  int scheduling_bucket(const StreamState& st) const;
  void activate_request(StreamId sid);
  void activate_response(StreamId sid);
  void start_server_hold(StreamId sid);
  void pump(Dir d);
  std::optional<Chunk> next_chunk(Dir d);
  void send_chunk(Dir d, const Chunk& chunk, bool is_retx);
  void on_packet_arrive(Dir d, std::uint64_t packet_num, Chunk chunk);
  void deliver_in_order(Dir d, const Chunk& chunk);
  void open_resp_stall(StreamId sid, std::size_t bytes);
  void close_resp_stall(StreamId sid, bool cross_stream);
  void close_fc_stall(Dir d);
  void credit_stream(Dir d, StreamId sid, std::size_t offset, std::size_t len);
  void on_ack(Dir d, std::uint64_t packet_num);
  void maybe_grant_credit(Dir d, StreamId sid);
  void declare_lost(Dir d, std::uint64_t packet_num, bool from_rto);
  void arm_rto(Dir d);
  void handle_rto(Dir d);
  bool has_sendable_data(Dir d);
  std::size_t overhead() const;
  void die(ConnectionError error);
  net::PacketClass pclass() const;  // the transport class middleboxes see

  sim::Simulator& sim_;
  net::NetPath& path_;
  tls::TransportKind kind_;
  tls::TlsVersion version_;
  tls::HandshakeMode mode_;
  util::Rng rng_;
  TransportConfig config_;

  std::array<std::unique_ptr<DirState>, 2> dirs_;
  std::map<StreamId, StreamState> streams_;
  std::vector<StreamId> pending_before_ready_;
  StreamId next_stream_id_ = 1;
  std::size_t active_stream_count_ = 0;

  bool connect_called_ = false;
  bool ready_ = false;
  bool closed_ = false;
  bool kill_scheduled_ = false;  // kill_response_at_bytes fired (at most once)
  std::size_t resp_delivered_total_ = 0;  // across all streams, for the kill trigger
  int consecutive_rtos_ = 0;  // across both directions; any ACK resets it
  std::function<void(TimePoint)> on_ready_;
  std::function<void(ConnectionError, TimePoint)> on_dead_;
  std::function<void(tls::SessionTicket)> ticket_sink_;
  obs::TraceHandle trace_;
  std::array<std::size_t, 2> last_traced_cwnd_{0, 0};
  std::uint64_t hs_generation_ = 0;
  int hs_steps_left_ = 0;
  int hs_total_steps_ = 0;
  int hs_retries_this_step_ = 0;
  sim::EventId hs_timer_ = 0;
  // Server-capacity admission state. A refusal leaves admitted_ false so a
  // lost refusal flight's handshake retry re-consults the (possibly drained)
  // server. admission_delay_ is consumed by the first cert-step processing;
  // retransmits of an admitted flight do not pay the queue twice.
  bool admitted_ = false;
  Duration admission_delay_{0};

  ConnectionStats stats_;
};

}  // namespace h3cdn::transport
