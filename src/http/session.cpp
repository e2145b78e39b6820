#include "http/session.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"

namespace h3cdn::http {

namespace {

const obs::MetricId kEntriesCompleted{"http.entries_completed"};
const obs::MetricId kEntryTotalMs{"http.entry.total_ms"};
const obs::MetricId kEntryConnectMs{"http.entry.connect_ms"};
const obs::MetricId kEntryBlockedMs{"http.entry.blocked_ms"};
const obs::MetricId kEntryTtfbMs{"http.entry.ttfb_ms"};
const obs::MetricId kEntryReceiveMs{"http.entry.receive_ms"};

Duration clamp_nonneg(Duration d) { return std::max(d, Duration::zero()); }
}  // namespace

std::shared_ptr<Session> Session::create(sim::Simulator& sim,
                                         std::shared_ptr<transport::Connection> conn,
                                         HttpVersion version, SessionConfig config) {
  H3CDN_EXPECTS(conn != nullptr);
  // Transport/version pairing: H3 runs on QUIC, H1.1/H2 on TCP.
  if (version == HttpVersion::H3) {
    H3CDN_EXPECTS(conn->kind() == tls::TransportKind::Quic);
  } else {
    H3CDN_EXPECTS(conn->kind() == tls::TransportKind::Tcp);
  }
  return std::shared_ptr<Session>(new Session(sim, std::move(conn), version, config));
}

Session::Session(sim::Simulator& sim, std::shared_ptr<transport::Connection> conn,
                 HttpVersion version, SessionConfig config)
    : sim_(sim), conn_(std::move(conn)), version_(version), config_(config) {
  if (version_ == HttpVersion::H1_1) config_.max_concurrent_streams = 1;
}

void Session::start() {
  H3CDN_EXPECTS(!started_);
  started_ = true;
  auto self = shared_from_this();
  conn_->connect([self](TimePoint) { self->maybe_dispatch(); });
  // weak: the connection outlives this closure only through the session's own
  // conn_ reference; a strong self here would make the cycle permanent.
  std::weak_ptr<Session> weak = self;
  conn_->set_on_dead([weak](transport::ConnectionError error, TimePoint) {
    if (auto s = weak.lock()) s->on_connection_dead(error);
  });
}

void Session::submit(const Request& request, FetchDone done) {
  H3CDN_EXPECTS(!closed_);
  H3CDN_EXPECTS(done != nullptr);
  queue_.push_back(PendingEntry{request, std::move(done), sim_.now(), 0});
  maybe_dispatch();
}

void Session::submit_rescued(Orphan orphan) {
  H3CDN_EXPECTS(!closed_);
  H3CDN_EXPECTS(orphan.done != nullptr);
  queue_.push_back(PendingEntry{std::move(orphan.request), std::move(orphan.done),
                                orphan.submitted, orphan.attempts, orphan.bytes_received});
  maybe_dispatch();
}

void Session::maybe_dispatch() {
  if (closed_) return;
  // Dispatch is allowed while the handshake is still running: the transport
  // queues streams and flushes them at readiness (and immediately for 0-RTT).
  // Gating on the stream limit is what distinguishes H1 (serial) from H2/H3.
  while (!queue_.empty() && in_flight_ < config_.max_concurrent_streams) {
    PendingEntry entry = std::move(queue_.front());
    queue_.pop_front();
    dispatch(std::move(entry));
  }
}

void Session::dispatch(PendingEntry pending) {
  auto entry = std::make_shared<ActiveEntry>();
  entry->submitted = pending.submitted;
  entry->dispatched = sim_.now();
  entry->attempts = pending.attempts + 1;
  entry->resume_offset = std::min(pending.resume_offset, pending.request.response_bytes);
  entry->request = std::move(pending.request);
  entry->done = std::move(pending.done);
  if (!initiator_assigned_) {
    // The first entry on a session is charged the handshake in its HAR
    // "connect" phase; every later entry reports connect == 0, which is the
    // paper's definition of a *reused HTTP connection* (§VI-C).
    initiator_assigned_ = true;
    entry->initiator = true;
  }
  ++in_flight_;
  active_.push_back(entry);

  auto self = shared_from_this();
  transport::FetchCallbacks cbs;
  cbs.on_request_sent = [entry](TimePoint t) { entry->request_sent = t; };
  cbs.on_first_byte = [entry](TimePoint t) { entry->first_byte = t; };
  cbs.on_complete = [self, entry](TimePoint t) { self->finalize(entry, t); };
  cbs.on_server_request = entry->request.server_hold;

  const std::size_t wire_request =
      entry->request.request_bytes + config_.per_stream_header_overhead;
  // A Range resume skips the already-delivered body prefix but always
  // re-fetches the response headers; keep at least one body byte on the wire
  // so completion still flows through the transport's delivery path.
  const std::size_t body_remaining =
      std::max<std::size_t>(entry->request.response_bytes - entry->resume_offset, 1);
  const std::size_t wire_response = body_remaining + config_.per_stream_header_overhead;
  // Completion can only fire after simulated round trips, never inside
  // fetch(), so recording the stream id afterwards is safe.
  entry->stream_id = conn_->fetch(wire_request, wire_response, entry->request.server_think,
                                  std::move(cbs), entry->request.priority);
}

void Session::finalize(std::shared_ptr<ActiveEntry> entry, TimePoint completed) {
  if (closed_) return;
  H3CDN_ASSERT(entry->request_sent >= TimePoint{0});
  H3CDN_ASSERT(entry->first_byte >= entry->request_sent);

  const auto& cstats = conn_->stats();
  EntryTimings t;
  t.started = entry->submitted;
  t.finished = completed;
  t.version = version_;
  t.handshake_mode = cstats.mode;
  t.connection_id = connection_id_;
  t.attempts = entry->attempts;
  t.resumed_from_bytes = entry->resume_offset;
  t.new_connection_initiator = entry->initiator;
  t.reused_connection = !entry->initiator;
  t.resumed = entry->initiator && cstats.mode != tls::HandshakeMode::Fresh;
  t.connect = entry->initiator ? clamp_nonneg(cstats.connect_time) : Duration::zero();

  // The request starts flowing once both the stream was dispatched and the
  // connection became ready.
  const TimePoint send_start = std::max(entry->dispatched, cstats.ready_at);
  t.send = clamp_nonneg(entry->request_sent - send_start);
  t.wait = clamp_nonneg(entry->first_byte - entry->request_sent);
  t.receive = clamp_nonneg(completed - entry->first_byte);
  const auto stalls = conn_->stall_totals(entry->stream_id);
  t.hol_stall = stalls.hol_stall;
  t.retx_wait = stalls.retx_wait;
  if (auto note = conn_->stream_annotation(entry->stream_id)) {
    t.upstream = std::static_pointer_cast<const UpstreamRecord>(note);
  }
  // Whatever is not handshake or data movement was queueing.
  t.blocked = clamp_nonneg((t.finished - t.started) - t.connect - t.send - t.wait - t.receive);

  H3CDN_ASSERT(in_flight_ > 0);
  --in_flight_;
  ++entries_completed_;
  obs::count(kEntriesCompleted);
  if (obs::enabled()) {
    obs::observe_ms(kEntryTotalMs, t.total());
    obs::observe_ms(kEntryConnectMs, t.connect);
    obs::observe_ms(kEntryBlockedMs, t.blocked);
    obs::observe_ms(kEntryTtfbMs, t.wait);
    obs::observe_ms(kEntryReceiveMs, t.receive);
  }
  std::erase(active_, entry);
  auto done = entry->done;
  maybe_dispatch();
  done(t);
}

void Session::on_connection_dead(transport::ConnectionError error) {
  if (closed_) return;
  dead_ = true;
  closed_ = true;
  // Evacuate every stranded entry — dispatched-but-incomplete first (they
  // were submitted earlier), then the still-queued ones — and hand them to
  // the owner. Without a handler the entries are simply abandoned, matching
  // the legacy behaviour of a closed session.
  std::vector<Orphan> orphans;
  orphans.reserve(active_.size() + queue_.size());
  for (auto& entry : active_) {
    // Progress made on this and every prior attempt survives the death: the
    // stream map is never pruned, so resp_delivered is still readable. The
    // header-overhead share of the wire bytes is not body progress.
    const std::size_t wire = conn_->stream_bytes_received(entry->stream_id);
    const std::size_t body =
        wire > config_.per_stream_header_overhead ? wire - config_.per_stream_header_overhead : 0;
    orphans.push_back(
        Orphan{std::move(entry->request), std::move(entry->done), entry->submitted,
               entry->attempts, entry->resume_offset + body});
  }
  active_.clear();
  in_flight_ = 0;
  for (auto& pending : queue_) {
    orphans.push_back(Orphan{std::move(pending.request), std::move(pending.done),
                             pending.submitted, pending.attempts, pending.resume_offset});
  }
  queue_.clear();
  if (on_dead_) {
    auto handler = std::move(on_dead_);
    on_dead_ = nullptr;
    handler(error, std::move(orphans));
  }
}

void Session::close() {
  if (closed_) return;
  closed_ = true;
  queue_.clear();
  conn_->close();
}

}  // namespace h3cdn::http
