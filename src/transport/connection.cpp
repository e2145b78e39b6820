#include "transport/connection.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace h3cdn::transport {

namespace {

const obs::MetricId kConnectionsOpened{"transport.connections_opened"};
const obs::MetricId kConnectionsOpenedQuic{"transport.connections_opened.quic"};
const obs::MetricId kConnectionsOpenedTcp{"transport.connections_opened.tcp"};
const obs::MetricId kHandshakeRefused{"transport.handshake.refused"};
const obs::MetricId kHandshakeAttempt{"transport.handshake_attempt"};
const obs::MetricId kHandshakeRetries{"transport.handshake.retries"};
const obs::MetricId kHandshakeDurationMs{"transport.handshake.duration_ms"};
const obs::MetricId kStreamsOpened{"transport.streams_opened"};
const obs::MetricId kPacketsSent{"transport.packets_sent"};
const obs::MetricId kRetransmissions{"transport.retransmissions"};
const obs::MetricId kFlowBlocked{"transport.flow_blocked"};
const obs::MetricId kStallHolMs{"transport.stall.hol_ms"};
const obs::MetricId kStallRetxWaitMs{"transport.stall.retx_wait_ms"};
const obs::MetricId kStallSpans{"transport.stall.spans"};
const obs::MetricId kStallFlowControl{"transport.stall.flow_control"};
const obs::MetricId kStallFlowControlMs{"transport.stall.flow_control_ms"};
const obs::MetricId kPacketsLost{"transport.packets_lost"};
const obs::MetricId kRtoFires{"transport.rto_fires"};
const obs::MetricId kDeathsHandshakeTimeout{"transport.deaths.handshake_timeout"};
const obs::MetricId kDeathsRefused{"transport.deaths.refused"};
const obs::MetricId kDeathsKilled{"transport.deaths.killed"};
const obs::MetricId kDeathsBlackhole{"transport.deaths.blackhole"};

Duration initial_rto_for_path(const net::NetPath& path) {
  // Until an RTT sample exists, time out after twice the base path RTT
  // (plus slack for serialization), floored at 250 ms — in the same regime
  // as TCP's initial SYN timers and QUIC's 333 ms kInitialRtt-based PTO.
  return std::max(Duration{path.base_rtt().count() * 2} + msec(20), msec(250));
}

}  // namespace

const char* to_string(ConnectionError e) {
  switch (e) {
    case ConnectionError::None: return "none";
    case ConnectionError::HandshakeTimeout: return "handshake_timeout";
    case ConnectionError::Blackhole: return "blackhole";
    case ConnectionError::Refused: return "refused";
    case ConnectionError::Killed: return "killed";
  }
  return "?";
}

std::shared_ptr<Connection> Connection::create(sim::Simulator& sim, net::NetPath& path,
                                               tls::TransportKind kind, tls::TlsVersion version,
                                               tls::HandshakeMode mode, util::Rng rng,
                                               TransportConfig config) {
  // QUIC mandates TLS 1.3 (RFC 9001); normalize rather than burden callers.
  if (kind == tls::TransportKind::Quic) version = tls::TlsVersion::Tls13;
  // 0-RTT requires a resumption secret; Fresh+ZeroRtt is contradictory.
  if (mode == tls::HandshakeMode::ZeroRtt && version != tls::TlsVersion::Tls13) {
    mode = tls::HandshakeMode::Resumed;
  }
  return std::shared_ptr<Connection>(
      new Connection(sim, path, kind, version, mode, rng, std::move(config)));
}

Connection::Connection(sim::Simulator& sim, net::NetPath& path, tls::TransportKind kind,
                       tls::TlsVersion version, tls::HandshakeMode mode, util::Rng rng,
                       TransportConfig config)
    : sim_(sim),
      path_(path),
      kind_(kind),
      version_(version),
      mode_(mode),
      rng_(rng),
      config_(std::move(config)) {
  const Duration init_rto = initial_rto_for_path(path_);
  const bool is_tcp = kind == tls::TransportKind::Tcp;
  const Duration min_rto = is_tcp ? config_.min_rto_tcp : config_.min_rto_quic;
  const Duration rto_extra = is_tcp ? Duration::zero() : config_.pto_ack_delay_quic;
  dirs_[0] =
      std::make_unique<DirState>(config_.cc, init_rto, min_rto, config_.max_rto, rto_extra);
  dirs_[1] =
      std::make_unique<DirState>(config_.cc, init_rto, min_rto, config_.max_rto, rto_extra);
  for (auto& d : dirs_) {
    d->conn_flow_limit = config_.initial_connection_window;
    d->conn_granted = config_.initial_connection_window;
  }
}

std::size_t Connection::mss() const {
  return kind_ == tls::TransportKind::Tcp ? config_.mss_tcp : config_.mss_quic;
}

std::size_t Connection::overhead() const {
  return kind_ == tls::TransportKind::Tcp ? config_.overhead_tcp : config_.overhead_quic;
}

net::PacketClass Connection::pclass() const {
  // Every QUIC packet — data, handshake, ACKs — is a UDP datagram on the
  // wire, which is exactly what a UDP-blackholing middlebox drops.
  return kind_ == tls::TransportKind::Quic ? net::PacketClass::Udp : net::PacketClass::Tcp;
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

void Connection::connect(std::function<void(TimePoint)> on_ready) {
  H3CDN_EXPECTS(!connect_called_);
  H3CDN_EXPECTS(!closed_);
  connect_called_ = true;
  on_ready_ = std::move(on_ready);
  stats_.mode = mode_;
  stats_.connect_start = sim_.now();
  obs::count(kConnectionsOpened);
  obs::count(kind_ == tls::TransportKind::Quic ? kConnectionsOpenedQuic : kConnectionsOpenedTcp);
  if (trace_) trace_.record({sim_.now(), obs::TraceEventType::HandshakeStarted});

  hs_total_steps_ = tls::handshake_rtts(kind_, version_, mode_);
  hs_steps_left_ = hs_total_steps_;
  if (hs_steps_left_ == 0) {
    // 0-RTT over QUIC: application data may ride the first flight. Model the
    // (cheap) PSK key schedule as an immediate finish.
    auto self = shared_from_this();
    if (config_.handshake_admission) {
      const auto verdict = config_.handshake_admission(sim_.now(), kind_, mode_);
      if (!verdict.has_value()) {
        // 0-RTT rejection at capacity: the client only learns one round trip
        // later, when the refusal flight lands. Modelled lossless — there is
        // no handshake timer in this path to drive a retry.
        obs::count(kHandshakeRefused);
        path_.send_up(
            config_.handshake_client_packet_bytes,
            [self] {
              if (self->closed_) return;
              self->path_.send_down(
                  self->config_.handshake_small_flight_bytes,
                  [self] {
                    if (!self->closed_) self->die(ConnectionError::Refused);
                  },
                  /*lossless=*/true, self->pclass());
            },
            /*lossless=*/true, pclass());
        return;
      }
      // The discounted PSK CPU is server-side only; the client proceeds
      // immediately, which is the point of 0-RTT.
      admitted_ = true;
    }
    sim_.schedule_in(Duration::zero(), [self] {
      if (!self->closed_) self->finish_handshake();
    });
    return;
  }
  start_handshake_attempt();
}

Duration Connection::handshake_timeout_now() const {
  Duration base = config_.handshake_timeout;
  if (base == Duration::zero()) base = initial_rto_for_path(path_);
  for (int i = 0; i < hs_retries_this_step_ && base < config_.max_rto; ++i) {
    base = std::min(Duration{base.count() * 2}, config_.max_rto);
  }
  return base;
}

void Connection::start_handshake_attempt() {
  obs::ProfileScope profile(kHandshakeAttempt);
  const std::uint64_t gen = ++hs_generation_;
  auto self = shared_from_this();

  const int step_index = hs_total_steps_ - hs_steps_left_ + 1;  // 1-based
  // The certificate-bearing server flight: QUIC packs it into its single
  // round trip; TCP+TLS sends it on the first TLS round trip (step 2).
  const bool cert_step = (kind_ == tls::TransportKind::Quic && step_index == 1) ||
                         (kind_ == tls::TransportKind::Tcp && step_index == 2);
  const std::size_t down_bytes =
      cert_step ? tls::handshake_server_flight_bytes(version_, mode_)
                : config_.handshake_small_flight_bytes;
  const Duration server_cost =
      cert_step ? tls::handshake_compute_cost(version_, mode_) : Duration::zero();

  path_.send_up(
      config_.handshake_client_packet_bytes,
      [self, gen, down_bytes, server_cost, cert_step] {
        if (self->closed_ || gen != self->hs_generation_) return;
        Duration cost = server_cost;
        if (cert_step && self->config_.handshake_admission && !self->admitted_) {
          const auto verdict =
              self->config_.handshake_admission(self->sim_.now(), self->kind_, self->mode_);
          if (!verdict.has_value()) {
            // Refused (RST / CONNECTION_REFUSED analogue): a small terminal
            // flight. If it is lost, the handshake timer retries the attempt
            // and the retry re-consults the (possibly drained) server.
            obs::count(kHandshakeRefused);
            self->path_.send_down(
                self->config_.handshake_small_flight_bytes,
                [self, gen] {
                  if (self->closed_ || gen != self->hs_generation_) return;
                  self->die(ConnectionError::Refused);
                },
                /*lossless=*/false, self->pclass());
            return;
          }
          self->admitted_ = true;
          self->admission_delay_ = *verdict;
        }
        if (cert_step) {
          // Accept-queue wait + handshake CPU, paid once; a retransmit of an
          // admitted flight does not re-queue.
          cost += self->admission_delay_;
          self->admission_delay_ = Duration::zero();
        }
        self->sim_.schedule_in(cost, [self, gen, down_bytes] {
          if (self->closed_ || gen != self->hs_generation_) return;
          self->path_.send_down(
              down_bytes, [self, gen] { self->handshake_step_done(gen); },
              /*lossless=*/false, self->pclass());
        });
      },
      /*lossless=*/false, pclass());

  hs_timer_ = sim_.schedule_in(handshake_timeout_now(), [self, gen] {
    if (self->closed_ || gen != self->hs_generation_) return;
    if (self->config_.max_handshake_retries > 0 &&
        self->stats_.handshake_retries >= self->config_.max_handshake_retries) {
      self->die(ConnectionError::HandshakeTimeout);
      return;
    }
    ++self->stats_.handshake_retries;
    ++self->hs_retries_this_step_;
    obs::count(kHandshakeRetries);
    if (self->trace_) {
      obs::TraceEvent ev{self->sim_.now(), obs::TraceEventType::HandshakeRetry};
      ev.fault = obs::FaultKind::HandshakeTimeout;
      self->trace_.record(ev);
    }
    self->start_handshake_attempt();
  });
}

void Connection::handshake_step_done(std::uint64_t generation) {
  if (closed_ || generation != hs_generation_) return;
  sim_.cancel(hs_timer_);
  hs_timer_ = 0;
  ++hs_generation_;  // invalidate the timer and any duplicate arrivals
  hs_retries_this_step_ = 0;
  --hs_steps_left_;
  if (hs_steps_left_ == 0) {
    finish_handshake();
  } else {
    start_handshake_attempt();
  }
}

void Connection::finish_handshake() {
  H3CDN_ASSERT(!ready_);
  ready_ = true;
  stats_.ready_at = sim_.now();
  stats_.connect_time = stats_.ready_at - stats_.connect_start;
  obs::observe_ms(kHandshakeDurationMs, stats_.connect_time);
  if (trace_) trace_.record({sim_.now(), obs::TraceEventType::HandshakeFinished});

  // NewSessionTicket: servers (re)issue tickets on every connection; the
  // browser stores it keyed by domain for future visits.
  if (ticket_sink_) {
    tls::SessionTicket ticket;
    ticket.domain = config_.domain;
    ticket.issued_at = sim_.now();
    ticket.version = version_;
    ticket.early_data_allowed = (version_ == tls::TlsVersion::Tls13);
    ticket_sink_(ticket);
  }

  for (StreamId sid : pending_before_ready_) activate_request(sid);
  pending_before_ready_.clear();

  // Move out first: the callback may close this connection, and it captures
  // the owner, which must not stay reachable from here once it has fired.
  if (auto on_ready = std::exchange(on_ready_, nullptr)) on_ready(sim_.now());
}

void Connection::set_ticket_sink(std::function<void(tls::SessionTicket)> sink) {
  ticket_sink_ = std::move(sink);
}

void Connection::set_trace(obs::TraceHandle trace) { trace_ = trace; }

// ---------------------------------------------------------------------------
// Fetch / stream management
// ---------------------------------------------------------------------------

StreamId Connection::fetch(std::size_t request_bytes, std::size_t response_bytes,
                           Duration server_think, FetchCallbacks callbacks, int priority) {
  H3CDN_EXPECTS(!closed_);
  H3CDN_EXPECTS(request_bytes > 0 && response_bytes > 0);
  H3CDN_EXPECTS(server_think >= Duration::zero());

  const StreamId sid = next_stream_id_++;
  StreamState st;
  st.id = sid;
  st.priority = priority;
  st.req_size = request_bytes;
  st.resp_size = response_bytes;
  st.req_flow_limit = config_.initial_stream_window;
  st.resp_flow_limit = config_.initial_stream_window;
  st.req_granted = config_.initial_stream_window;
  st.resp_granted = config_.initial_stream_window;
  st.server_think = server_think;
  st.cb = std::move(callbacks);
  st.opened_at = sim_.now();
  streams_.emplace(sid, std::move(st));
  ++stats_.streams_opened;
  ++active_stream_count_;
  obs::count(kStreamsOpened);
  if (trace_) {
    obs::TraceEvent ev{sim_.now(), obs::TraceEventType::StreamOpened};
    ev.stream_id = sid;
    ev.bytes = response_bytes;
    trace_.record(ev);
  }

  if (ready_) {
    activate_request(sid);
  } else {
    pending_before_ready_.push_back(sid);
  }
  return sid;
}

int Connection::scheduling_bucket(const StreamState& st) const {
  // Requests are tiny; only response scheduling is prioritized.
  if (!config_.respect_priorities) return 0;
  const int coarseness = std::max(1, config_.priority_coarseness);
  return st.priority / coarseness;
}

void Connection::activate_request(StreamId sid) {
  dir(Dir::Up).rr[0].push_back(sid);
  pump(Dir::Up);
}

void Connection::activate_response(StreamId sid) {
  auto& st = streams_.at(sid);
  H3CDN_ASSERT(!st.response_active);
  st.response_active = true;
  dir(Dir::Down).rr[scheduling_bucket(st)].push_back(sid);
  pump(Dir::Down);
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

bool Connection::has_sendable_data(Dir d) {
  auto& s = dir(d);
  if (!s.retx_queue.empty()) return true;
  if (s.conn_bytes_assigned >= s.conn_flow_limit) return false;  // conn window full
  for (auto it = s.rr.begin(); it != s.rr.end();) {
    auto& bucket = it->second;
    std::size_t scanned = 0;
    while (!bucket.empty() && scanned < bucket.size()) {
      const StreamId sid = bucket.front();
      const auto& st = streams_.at(sid);
      const std::size_t sent = d == Dir::Up ? st.req_sent_offset : st.resp_sent_offset;
      const std::size_t size = d == Dir::Up ? st.req_size : st.resp_size;
      if (sent >= size) {
        bucket.pop_front();  // fully carved; drop from the rotation
        continue;
      }
      const std::size_t limit = d == Dir::Up ? st.req_flow_limit : st.resp_flow_limit;
      if (sent < limit) return true;
      bucket.pop_front();  // window-blocked: rotate and keep scanning
      bucket.push_back(sid);
      ++scanned;
    }
    if (bucket.empty()) {
      it = s.rr.erase(it);  // empty priority bucket
    } else {
      ++it;  // bucket entirely window-blocked; lower-priority buckets may send
    }
  }
  return false;
}

std::optional<Connection::Chunk> Connection::next_chunk(Dir d) {
  auto& s = dir(d);
  if (!s.retx_queue.empty()) {
    Chunk c = s.retx_queue.front();
    s.retx_queue.pop_front();
    return c;
  }
  // Connection-level flow control: no new payload past the advertised limit.
  if (s.conn_bytes_assigned >= s.conn_flow_limit) return std::nullopt;
  // Strict priority across buckets; FIFO rotation within one. A bucket whose
  // streams are all window-blocked yields to lower-priority buckets.
  for (auto bucket_it = s.rr.begin(); bucket_it != s.rr.end();) {
    auto& bucket = bucket_it->second;
    std::size_t scanned = 0;
    while (!bucket.empty() && scanned <= bucket.size()) {
    const StreamId sid = bucket.front();
    auto& st = streams_.at(sid);
    std::size_t& sent = d == Dir::Up ? st.req_sent_offset : st.resp_sent_offset;
    const std::size_t size = d == Dir::Up ? st.req_size : st.resp_size;
    if (sent >= size) {
      bucket.pop_front();
      continue;
    }
    // Stream-level flow control: rotate a blocked stream to the back of its
    // bucket and try the rest of the bucket.
    const std::size_t stream_limit = d == Dir::Up ? st.req_flow_limit : st.resp_flow_limit;
    if (sent >= stream_limit) {
      bucket.pop_front();
      bucket.push_back(sid);
      ++scanned;
      continue;
    }
    Chunk c;
    c.stream = sid;
    c.stream_offset = sent;
    c.len = std::min({mss(), size - sent, stream_limit - sent,
                      s.conn_flow_limit - s.conn_bytes_assigned});
    c.conn_offset = s.conn_bytes_assigned;
    s.conn_bytes_assigned += c.len;
    sent += c.len;
    // Rotate within the priority bucket so same-urgency responses interleave
    // (both H2 and H3 frame-multiplex this way). A lone stream stays put:
    // rotating it would only walk the deque into a fresh block every 64 sends.
    if (sent >= size) {
      bucket.pop_front();
    } else if (bucket.size() > 1) {
      bucket.pop_front();
      bucket.push_back(sid);
    }
    if (d == Dir::Up && sent >= size && !st.request_sent_reported) {
      st.request_sent_reported = true;
      if (auto cb = std::exchange(st.cb.on_request_sent, nullptr)) cb(sim_.now());
    }
    return c;
    }
    if (bucket.empty()) {
      bucket_it = s.rr.erase(bucket_it);
    } else {
      ++bucket_it;  // entirely window-blocked bucket: try lower priorities
    }
  }
  return std::nullopt;
}

void Connection::send_chunk(Dir d, const Chunk& chunk, bool is_retx) {
  auto& s = dir(d);
  const std::uint64_t num = s.next_packet_num++;
  s.in_flight.emplace(num, SentPacket{chunk, sim_.now(), is_retx});
  ++stats_.packets_sent;
  stats_.bytes_sent += chunk.len;
  obs::count(kPacketsSent);
  if (is_retx) {
    ++stats_.retransmissions;
    obs::count(kRetransmissions);
  }
  if (trace_) {
    obs::TraceEvent ev{sim_.now(), is_retx ? obs::TraceEventType::Retransmission
                                           : obs::TraceEventType::PacketSent};
    ev.packet_number = num;
    ev.stream_id = chunk.stream;
    ev.bytes = chunk.len;
    ev.is_client_to_server = d == Dir::Up;
    trace_.record(ev);
  }

  auto self = shared_from_this();
  auto deliver = [self, d, num, chunk] { self->on_packet_arrive(d, num, chunk); };
  static_assert(sim::SmallFn::fits_inline<decltype(deliver)>(),
                "a data packet's delivery must not allocate");
  if (d == Dir::Up) {
    path_.send_up(chunk.len + overhead(), std::move(deliver), /*lossless=*/false, pclass());
  } else {
    path_.send_down(chunk.len + overhead(), std::move(deliver), /*lossless=*/false, pclass());
  }
}

void Connection::pump(Dir d) {
  if (closed_ || !ready_) return;
  auto& s = dir(d);
  while (s.in_flight.size() < s.cc.cwnd() && has_sendable_data(d)) {
    const bool is_retx = !s.retx_queue.empty();
    auto chunk = next_chunk(d);
    H3CDN_ASSERT(chunk.has_value());
    send_chunk(d, *chunk, is_retx);
  }
  // Flow-control stall accounting: congestion window open, data pending,
  // but every pending stream (or the connection itself) is window-blocked.
  if (s.in_flight.size() < s.cc.cwnd() && !has_sendable_data(d)) {
    bool data_pending = false;
    for (const auto& [prio, bucket] : s.rr) {
      for (StreamId sid : bucket) {
        const auto& st = streams_.at(sid);
        const std::size_t sent = d == Dir::Up ? st.req_sent_offset : st.resp_sent_offset;
        const std::size_t size = d == Dir::Up ? st.req_size : st.resp_size;
        if (sent < size) {
          data_pending = true;
          break;
        }
      }
      if (data_pending) break;
    }
    if (data_pending) {
      ++stats_.flow_blocked_events;
      obs::count(kFlowBlocked);
      // Connection-scope starvation (MAX_DATA exhausted) opens a stall span;
      // it closes when the receiver's next credit grant arrives. Stream-scope
      // blocks are excluded: only the connection window couples streams.
      if (s.conn_bytes_assigned >= s.conn_flow_limit && s.fc_stall_since < TimePoint{0}) {
        s.fc_stall_since = sim_.now();
      }
    }
  }
  arm_rto(d);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void Connection::on_packet_arrive(Dir d, std::uint64_t packet_num, Chunk chunk) {
  if (closed_) return;
  auto& s = dir(d);
  ++stats_.packets_delivered;
  if (trace_) {
    obs::TraceEvent ev{sim_.now(), obs::TraceEventType::PacketReceived};
    ev.packet_number = packet_num;
    ev.stream_id = chunk.stream;
    ev.bytes = chunk.len;
    ev.is_client_to_server = d == Dir::Up;
    trace_.record(ev);
  }

  if (kind_ == tls::TransportKind::Tcp) {
    // TCP: cumulative, connection-wide ordering. Anything beyond recv_next
    // waits in the out-of-order buffer — including data of unrelated streams
    // (this *is* head-of-line blocking).
    if (chunk.conn_offset >= s.recv_next_conn &&
        s.conn_ooo.find(chunk.conn_offset) == s.conn_ooo.end()) {
      const bool fills_gap = chunk.conn_offset == s.recv_next_conn;
      // In order with nothing parked: delivered below without the buffer.
      const bool direct = fills_gap && s.conn_ooo.empty();
      if (!direct) s.conn_ooo.emplace(chunk.conn_offset, chunk);
      if (d == Dir::Down && !fills_gap) open_resp_stall(chunk.stream, chunk.len);
      if (d == Dir::Down && fills_gap) {
        // The gap that blocked every parked stream belonged to `chunk.stream`
        // (the retransmission that just filled it). Close all open stall
        // spans *before* draining — delivery below may complete a stream and
        // its observer reads stall totals synchronously. A span on the
        // filler's own stream was retransmission wait; any other stream was
        // a victim of TCP head-of-line blocking.
        for (auto& [sid, st] : streams_) {
          if (st.stall_since >= TimePoint{0}) close_resp_stall(sid, sid != chunk.stream);
        }
      }
      if (direct) {
        s.recv_next_conn += chunk.len;
        deliver_in_order(d, chunk);
      }
      while (!s.conn_ooo.empty() && s.conn_ooo.begin()->first == s.recv_next_conn) {
        const Chunk next = s.conn_ooo.begin()->second;
        s.conn_ooo.erase(s.conn_ooo.begin());
        s.recv_next_conn += next.len;
        deliver_in_order(d, next);
      }
      if (d == Dir::Down && fills_gap) {
        // Chunks still parked behind the *next* gap stay blocked: reopen
        // their spans at the same instant so accounted intervals tile the
        // blocked time exactly.
        for (const auto& [off, parked] : s.conn_ooo) open_resp_stall(parked.stream, parked.len);
      }
    }
    // else: duplicate (spurious retransmission) — ignored, but still acked.
  } else {
    // QUIC: per-stream ordering; other streams are unaffected by this gap.
    auto it = streams_.find(chunk.stream);
    if (it != streams_.end()) {
      auto& st = it->second;
      auto& recv_next = d == Dir::Up ? st.req_recv_next : st.resp_recv_next;
      auto& ooo = d == Dir::Up ? st.req_ooo : st.resp_ooo;
      if (chunk.stream_offset >= recv_next && ooo.find(chunk.stream_offset) == ooo.end()) {
        const bool fills_gap = chunk.stream_offset == recv_next;
        // In order with nothing parked: delivered below without the buffer.
        const bool direct = fills_gap && ooo.empty();
        if (!direct) ooo.emplace(chunk.stream_offset, chunk.len);
        if (d == Dir::Down && !fills_gap) open_resp_stall(chunk.stream, chunk.len);
        if (d == Dir::Down && fills_gap) {
          // QUIC gaps only ever block the stream's own data — cross-stream
          // HoL stalls are structurally impossible (the paper's Fig. 9
          // mechanism), so every span here is retransmission wait. Close
          // before draining: delivery may complete the stream and its
          // observer reads stall totals synchronously.
          close_resp_stall(chunk.stream, /*cross_stream=*/false);
        }
        if (direct) {
          recv_next += chunk.len;
          deliver_in_order(d, chunk);
        }
        while (!ooo.empty() && ooo.begin()->first == recv_next) {
          const std::size_t len = ooo.begin()->second;
          const std::size_t off = ooo.begin()->first;
          ooo.erase(ooo.begin());
          recv_next += len;
          Chunk ordered{chunk.stream, off, len, 0};
          deliver_in_order(d, ordered);
        }
        if (d == Dir::Down && fills_gap && !st.resp_ooo.empty()) {
          // Bytes still parked behind this stream's next gap stay blocked:
          // reopen at the same instant so spans tile the blocked time.
          std::size_t parked_bytes = 0;
          for (const auto& [poff, plen] : st.resp_ooo) parked_bytes += plen;
          open_resp_stall(chunk.stream, parked_bytes);
        }
      }
    }
  }

  // Acknowledge every received packet. ACKs ride the reverse link and are
  // modelled lossless (see DESIGN.md: data-direction loss dominates; lossy
  // ACKs would require ack-of-ack machinery without changing the compared
  // behaviours, which are identical for both transports).
  auto self = shared_from_this();
  auto deliver = [self, d, packet_num] { self->on_ack(d, packet_num); };
  static_assert(sim::SmallFn::fits_inline<decltype(deliver)>(), "an ACK must not allocate");
  if (d == Dir::Up) {
    path_.send_down(config_.ack_bytes, std::move(deliver), /*lossless=*/true, pclass());
  } else {
    path_.send_up(config_.ack_bytes, std::move(deliver), /*lossless=*/true, pclass());
  }
}

void Connection::deliver_in_order(Dir d, const Chunk& chunk) {
  dir(d).conn_delivered += chunk.len;
  credit_stream(d, chunk.stream, chunk.stream_offset, chunk.len);
  maybe_grant_credit(d, chunk.stream);
}

void Connection::open_resp_stall(StreamId sid, std::size_t bytes) {
  auto it = streams_.find(sid);
  if (it == streams_.end()) return;
  auto& st = it->second;
  if (st.stall_since < TimePoint{0}) st.stall_since = sim_.now();
  st.stalled_bytes += bytes;
}

void Connection::close_resp_stall(StreamId sid, bool cross_stream) {
  auto it = streams_.find(sid);
  if (it == streams_.end()) return;
  auto& st = it->second;
  if (st.stall_since < TimePoint{0}) return;
  const Duration span = sim_.now() - st.stall_since;
  st.stall_since = TimePoint{-1};
  const std::size_t blocked_bytes = st.stalled_bytes;
  st.stalled_bytes = 0;
  if (span <= Duration::zero()) return;  // opened+closed at the same instant
  if (cross_stream) {
    st.hol_stall_total += span;
    stats_.hol_stall_total += span;
    obs::observe_ms(kStallHolMs, span);
  } else {
    st.retx_wait_total += span;
    stats_.retx_wait_total += span;
    obs::observe_ms(kStallRetxWaitMs, span);
  }
  ++stats_.stall_spans;
  obs::count(kStallSpans);
  if (trace_) {
    obs::TraceEvent ev{sim_.now(), obs::TraceEventType::StreamStallSpan};
    ev.stream_id = sid;
    ev.bytes = blocked_bytes;
    ev.duration_ms = to_ms(span);
    ev.cross_stream = cross_stream;
    ev.is_client_to_server = false;
    trace_.record(ev);
  }
}

void Connection::close_fc_stall(Dir d) {
  auto& s = dir(d);
  if (s.fc_stall_since < TimePoint{0}) return;
  const Duration span = sim_.now() - s.fc_stall_since;
  s.fc_stall_since = TimePoint{-1};
  if (span <= Duration::zero()) return;
  stats_.flow_control_stall_total += span;
  ++stats_.flow_control_stalls;
  obs::count(kStallFlowControl);
  obs::observe_ms(kStallFlowControlMs, span);
  if (trace_) {
    obs::TraceEvent ev{sim_.now(), obs::TraceEventType::FlowControlStallSpan};
    ev.duration_ms = to_ms(span);
    ev.is_client_to_server = d == Dir::Up;
    trace_.record(ev);
  }
}

StreamStallTotals Connection::stall_totals(StreamId sid) const {
  auto it = streams_.find(sid);
  if (it == streams_.end()) return {};
  return {it->second.hol_stall_total, it->second.retx_wait_total};
}

std::size_t Connection::stream_bytes_received(StreamId sid) const {
  auto it = streams_.find(sid);
  if (it == streams_.end()) return 0;
  return it->second.resp_delivered;
}

std::shared_ptr<void> Connection::stream_annotation(StreamId sid) const {
  auto it = streams_.find(sid);
  if (it == streams_.end()) return nullptr;
  return it->second.annotation;
}

void Connection::start_server_hold(StreamId sid) {
  auto& st = streams_.at(sid);
  auto self = shared_from_this();
  // One-shot latch shared by both controls: whichever fires first wins and
  // later invocations (e.g. an upstream completion racing a scripted kill)
  // are ignored.
  auto fired = std::make_shared<bool>(false);
  const Duration base_think = st.server_think;
  ServerHoldControls controls;
  controls.resume = [self, sid, fired, base_think](Duration extra,
                                                   std::shared_ptr<void> annotation) {
    if (*fired) return;
    *fired = true;
    if (self->closed_) return;
    auto it = self->streams_.find(sid);
    if (it == self->streams_.end()) return;
    it->second.annotation = std::move(annotation);
    const Duration think = base_think + std::max(extra, Duration::zero());
    self->sim_.schedule_in(think, [self, sid] {
      if (self->closed_) return;
      self->activate_response(sid);
    });
  };
  controls.kill = [self, fired] {
    if (*fired) return;
    *fired = true;
    if (self->closed_) return;
    // Tear down via the event loop, mirroring kill_response_at_bytes.
    self->sim_.schedule_in(Duration::zero(), [self] {
      if (!self->closed_) self->die(ConnectionError::Killed);
    });
  };
  // Copy the hold out of the stream before invoking: it may re-enter the
  // simulator and mutate streams_ (e.g. a mid-tier cache hit resuming
  // synchronously).
  ServerHold hold = st.cb.on_server_request;
  hold(sim_.now(), controls);
}

void Connection::maybe_grant_credit(Dir d, StreamId sid) {
  // Receiver-side autotuning: once half of the advertised credit has been
  // consumed, advertise another half-window (connection and stream scope).
  auto& s = dir(d);
  const std::size_t half_conn = config_.initial_connection_window / 2;
  bool update = false;
  if (s.conn_granted - s.conn_delivered < half_conn) {
    s.conn_granted += half_conn;
    update = true;
  }
  std::size_t new_stream_limit = 0;
  auto it = streams_.find(sid);
  if (it != streams_.end()) {
    auto& st = it->second;
    const std::size_t delivered = d == Dir::Up ? st.req_delivered : st.resp_delivered;
    std::size_t& granted = d == Dir::Up ? st.req_granted : st.resp_granted;
    const std::size_t half_stream = config_.initial_stream_window / 2;
    if (granted - delivered < half_stream) {
      granted += half_stream;
      new_stream_limit = granted;
      update = true;
    }
  }
  if (!update) return;
  // WINDOW_UPDATE / MAX_DATA control packet to the sender (reverse path,
  // modelled lossless like ACKs).
  ++stats_.window_updates_sent;
  const std::size_t conn_limit = s.conn_granted;
  auto self = shared_from_this();
  auto apply = [self, d, sid, conn_limit, new_stream_limit] {
    if (self->closed_) return;
    auto& sender = self->dir(d);
    if (conn_limit > sender.conn_flow_limit) self->close_fc_stall(d);
    sender.conn_flow_limit = std::max(sender.conn_flow_limit, conn_limit);
    if (new_stream_limit > 0) {
      auto sit = self->streams_.find(sid);
      if (sit != self->streams_.end()) {
        std::size_t& limit =
            d == Dir::Up ? sit->second.req_flow_limit : sit->second.resp_flow_limit;
        limit = std::max(limit, new_stream_limit);
      }
    }
    self->pump(d);
  };
  static_assert(sim::SmallFn::fits_inline<decltype(apply)>(),
                "a WINDOW_UPDATE must not allocate");
  if (d == Dir::Up) {
    path_.send_down(config_.ack_bytes, std::move(apply), /*lossless=*/true, pclass());
  } else {
    path_.send_up(config_.ack_bytes, std::move(apply), /*lossless=*/true, pclass());
  }
}

void Connection::credit_stream(Dir d, StreamId sid, std::size_t /*offset*/, std::size_t len) {
  auto it = streams_.find(sid);
  if (it == streams_.end()) return;
  auto& st = it->second;
  if (d == Dir::Up) {
    st.req_delivered += len;
    H3CDN_ASSERT(st.req_delivered <= st.req_size);
    if (st.req_delivered == st.req_size) {
      if (st.cb.on_server_request) {
        // Gated response: the hold decides when (or whether) to start it.
        start_server_hold(sid);
      } else {
        // Full request at the server: think, then start the response.
        auto self = shared_from_this();
        sim_.schedule_in(st.server_think, [self, sid] {
          if (self->closed_) return;
          self->activate_response(sid);
        });
      }
    }
  } else {
    if (!st.first_byte_reported) {
      st.first_byte_reported = true;
      if (auto cb = std::exchange(st.cb.on_first_byte, nullptr)) cb(sim_.now());
    }
    st.resp_delivered += len;
    H3CDN_ASSERT(st.resp_delivered <= st.resp_size);
    resp_delivered_total_ += len;
    if (config_.kill_response_at_bytes > 0 && !kill_scheduled_ &&
        resp_delivered_total_ >= config_.kill_response_at_bytes) {
      // Scripted mid-transfer kill: tear down via the event loop rather than
      // mid-delivery, so the remaining in-flight chunks of this packet still
      // credit their streams (resp_delivered stays exact for Range resume).
      kill_scheduled_ = true;
      auto self = shared_from_this();
      sim_.schedule_in(Duration::zero(), [self] {
        if (!self->closed_) self->die(ConnectionError::Killed);
      });
    }
    if (st.resp_delivered == st.resp_size && !st.done) {
      st.done = true;
      H3CDN_ASSERT(active_stream_count_ > 0);
      --active_stream_count_;
      if (trace_) {
        obs::TraceEvent ev{sim_.now(), obs::TraceEventType::StreamFinished};
        ev.stream_id = sid;
        ev.bytes = st.resp_size;
        trace_.record(ev);
      }
      if (auto cb = std::exchange(st.cb.on_complete, nullptr)) cb(sim_.now());
    }
  }
}

// ---------------------------------------------------------------------------
// Acknowledgements, loss detection, RTO
// ---------------------------------------------------------------------------

void Connection::on_ack(Dir d, std::uint64_t packet_num) {
  if (closed_) return;
  auto& s = dir(d);
  ++stats_.acks_received;
  consecutive_rtos_ = 0;  // any ACK proves the path is alive

  auto it = s.in_flight.find(packet_num);
  if (it != s.in_flight.end()) {
    if (!it->second.is_retx) {
      s.rtt.sample(sim_.now() - it->second.sent);  // Karn: no retx samples
    }
    s.cc.on_ack(sim_.now());
    if (trace_) {
      obs::TraceEvent ev{sim_.now(), obs::TraceEventType::PacketAcked};
      ev.packet_number = packet_num;
      ev.stream_id = it->second.chunk.stream;
      ev.is_client_to_server = d == Dir::Up;
      trace_.record(ev);
      const std::size_t cwnd = s.cc.cwnd();
      auto& last = last_traced_cwnd_[static_cast<std::size_t>(d)];
      if (cwnd != last) {
        last = cwnd;
        obs::TraceEvent cw{sim_.now(), obs::TraceEventType::CwndUpdated};
        cw.cwnd = static_cast<double>(cwnd);
        cw.is_client_to_server = d == Dir::Up;
        trace_.record(cw);
      }
    }
    s.in_flight.erase(it);
    if (!s.any_acked || packet_num > s.largest_acked) {
      s.largest_acked = packet_num;
      s.any_acked = true;
    }
  }

  // Packet-threshold loss detection (RFC 9002 §6.1.1): a packet is lost once
  // `reorder_threshold` packets sent after it are acknowledged. QUIC
  // additionally runs time-threshold detection (§6.1.2): any packet older
  // than 9/8·RTT with a later packet acknowledged is declared lost without
  // waiting for three follow-ups or an RTO. Classic TCP loss detection has
  // no such early-retransmit path — its tail losses wait for the (>=200 ms)
  // RTO, and head-of-line blocking extends that stall to every H2 stream.
  if (s.any_acked) {
    const Duration time_threshold =
        Duration{std::max<std::int64_t>(s.rtt.srtt().count() * 9 / 8, msec(1).count())};
    std::vector<std::uint64_t> lost;
    for (const auto& [num, pkt] : s.in_flight) {
      if (num >= s.largest_acked) break;  // map is ordered by packet number
      if (num + config_.reorder_threshold <= s.largest_acked) {
        lost.push_back(num);
      } else if (kind_ == tls::TransportKind::Quic &&
                 pkt.sent + time_threshold <= sim_.now()) {
        lost.push_back(num);
      }
    }
    for (std::uint64_t num : lost) declare_lost(d, num, /*from_rto=*/false);
  }

  s.rtt.reset_backoff();
  arm_rto(d);
  pump(d);
}

void Connection::declare_lost(Dir d, std::uint64_t packet_num, bool from_rto) {
  auto& s = dir(d);
  auto it = s.in_flight.find(packet_num);
  if (it == s.in_flight.end()) return;
  const SentPacket pkt = it->second;
  s.in_flight.erase(it);
  ++stats_.packets_declared_lost;
  obs::count(kPacketsLost);
  if (trace_) {
    obs::TraceEvent ev{sim_.now(), obs::TraceEventType::PacketLost};
    ev.packet_number = packet_num;
    ev.stream_id = pkt.chunk.stream;
    ev.bytes = pkt.chunk.len;
    ev.is_client_to_server = d == Dir::Up;
    trace_.record(ev);
  }

  if (from_rto) {
    s.cc.on_rto(sim_.now());
  } else {
    s.cc.on_loss(pkt.sent, sim_.now());
  }
  // Retransmissions take priority over new data.
  s.retx_queue.push_front(pkt.chunk);
}

void Connection::arm_rto(Dir d) {
  auto& s = dir(d);
  if (s.in_flight.empty() || closed_) {
    if (s.rto_timer != 0) sim_.cancel(s.rto_timer);
    s.rto_timer = 0;
    return;
  }
  // in_flight is keyed by packet number; retransmissions get fresh (larger)
  // numbers, so the first entry is the oldest outstanding transmission.
  const TimePoint earliest = s.in_flight.begin()->second.sent;
  TimePoint fire_at = earliest + s.rtt.rto();
  if (fire_at <= sim_.now()) fire_at = sim_.now() + usec(1);
  // Move a pending timer in place: it orders exactly as cancel + schedule
  // would, without rebuilding the callback and its shared_ptr on every ACK.
  if (s.rto_timer != 0 && sim_.reschedule(s.rto_timer, fire_at)) return;
  auto self = shared_from_this();
  s.rto_timer = sim_.schedule_at(fire_at, [self, d] { self->handle_rto(d); });
}

void Connection::handle_rto(Dir d) {
  if (closed_) return;
  auto& s = dir(d);
  s.rto_timer = 0;
  if (s.in_flight.empty()) return;
  ++stats_.rto_fires;
  obs::count(kRtoFires);
  if (trace_) {
    obs::TraceEvent ev{sim_.now(), obs::TraceEventType::RtoFired};
    ev.is_client_to_server = d == Dir::Up;
    trace_.record(ev);
  }
  // Blackhole detection: RTO fires with not a single ACK in between mean the
  // path is eating everything (the RTO backoff doubles between fires, so this
  // is a bounded wall-clock budget, not a fixed count of round trips).
  ++consecutive_rtos_;
  if (config_.blackhole_rto_threshold > 0 &&
      consecutive_rtos_ >= config_.blackhole_rto_threshold) {
    die(ConnectionError::Blackhole);
    return;
  }
  s.rtt.backoff();
  declare_lost(d, s.in_flight.begin()->first, /*from_rto=*/true);
  arm_rto(d);
  pump(d);
}

// ---------------------------------------------------------------------------

void Connection::set_on_dead(std::function<void(ConnectionError, TimePoint)> on_dead) {
  on_dead_ = std::move(on_dead);
}

void Connection::die(ConnectionError error) {
  if (closed_) return;
  H3CDN_EXPECTS(error != ConnectionError::None);
  stats_.error = error;
  obs::count(error == ConnectionError::HandshakeTimeout ? kDeathsHandshakeTimeout
             : error == ConnectionError::Refused        ? kDeathsRefused
             : error == ConnectionError::Killed         ? kDeathsKilled
                                                        : kDeathsBlackhole);
  if (trace_) {
    obs::TraceEvent ev{sim_.now(), obs::TraceEventType::ConnectionAborted};
    ev.fault = error == ConnectionError::HandshakeTimeout ? obs::FaultKind::HandshakeTimeout
               : error == ConnectionError::Refused        ? obs::FaultKind::Refused
               : error == ConnectionError::Killed         ? obs::FaultKind::Outage
                                                          : obs::FaultKind::Blackhole;
    trace_.record(ev);
  }
  close();
  if (on_dead_) {
    // Move out first: the callback may drop its owning session, and with it
    // this connection's last reference.
    auto cb = std::move(on_dead_);
    on_dead_ = nullptr;
    cb(error, sim_.now());
  }
}

void Connection::close() {
  if (closed_) return;
  // Record any flow-control stall still open at teardown before events stop.
  close_fc_stall(Dir::Up);
  close_fc_stall(Dir::Down);
  closed_ = true;
  if (admitted_ && config_.connection_release) {
    admitted_ = false;  // release the server concurrency slot exactly once
    config_.connection_release();
  }
  for (auto& dptr : dirs_) {
    if (dptr->rto_timer != 0) sim_.cancel(dptr->rto_timer);
    dptr->rto_timer = 0;
  }
  if (hs_timer_ != 0) sim_.cancel(hs_timer_);
  hs_timer_ = 0;
  ++hs_generation_;
  // The owner's callbacks capture the owner, which holds this connection:
  // keeping them past close would keep both alive forever.
  on_ready_ = nullptr;
  for (auto& [sid, st] : streams_) st.cb = {};
}

}  // namespace h3cdn::transport
