#include "http/pool.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "util/check.h"

namespace h3cdn::http {

namespace {

const obs::MetricId kPoolH3Reprobes{"http.pool.h3_reprobes"};
const obs::MetricId kPoolConnectionsH1{"http.pool.connections.h1"};
const obs::MetricId kPoolConnectionsH2{"http.pool.connections.h2"};
const obs::MetricId kPoolConnectionsH3{"http.pool.connections.h3"};
const obs::MetricId kPoolResumedConnections{"http.pool.resumed_connections"};
const obs::MetricId kEntriesSubmitted{"http.entries_submitted"};
const obs::MetricId kHintOverrides{"http.hint_overrides"};
const obs::MetricId kBreakerDemotions{"resilience.breaker.demotions"};
const obs::MetricId kHedgesCancelled{"resilience.hedges_cancelled"};
const obs::MetricId kHedgesWon{"resilience.hedges_won"};
const obs::MetricId kHedgesLost{"resilience.hedges_lost"};
const obs::MetricId kHedgesLaunched{"resilience.hedges_launched"};
const obs::MetricId kPoolConnectionDeaths{"http.pool.connection_deaths"};
const obs::MetricId kResumedRequests{"resilience.resumed_requests"};
const obs::MetricId kResumedBytes{"resilience.resumed_bytes"};
const obs::MetricId kPoolConnectionsRefused{"http.pool.connections_refused"};
const obs::MetricId kPoolRequestsRescued{"http.pool.requests_rescued"};
const obs::MetricId kPoolRefusalRetries{"http.pool.refusal_retries"};
const obs::MetricId kRetries{"resilience.retries"};
const obs::MetricId kPoolH3Fallbacks{"http.pool.h3_fallbacks"};
const obs::MetricId kEntriesFailed{"http.entries_failed"};
const obs::MetricId kDeadlineFailures{"resilience.deadline_failures"};
const obs::MetricId kTracesDropped{"obs.traces_dropped"};

}  // namespace

ConnectionPool::ConnectionPool(sim::Simulator& sim, PoolConfig config, Resolver resolver,
                               tls::SessionTicketStore* tickets, util::Rng rng)
    : sim_(sim),
      config_(std::move(config)),
      resolver_(std::move(resolver)),
      tickets_(tickets),
      rng_(rng),
      created_at_(sim.now()) {
  H3CDN_EXPECTS(resolver_ != nullptr);
  H3CDN_EXPECTS(config_.h1_max_connections_per_origin >= 1);
}

resilience::Engine* ConnectionPool::engine() const {
  resilience::Engine* e = config_.resilience;
  return (e != nullptr && e->enabled()) ? e : nullptr;
}

HttpVersion ConnectionPool::protocol_for(const OriginInfo& origin) const {
  if (!origin.supports_h2) return HttpVersion::H1_1;
  if (config_.h3_enabled && origin.supports_h3) return HttpVersion::H3;
  return HttpVersion::H2;
}

bool ConnectionPool::h3_broken(const std::string& domain) {
  auto it = h3_broken_until_.find(domain);
  if (it == h3_broken_until_.end()) return false;
  if (sim_.now() >= it->second) {
    // TTL expired: clear the mark; the caller's next H3 dial is the re-probe.
    h3_broken_until_.erase(it);
    obs::count(kPoolH3Reprobes, sim_.now());
    record_fault(obs::TraceEventType::H3ReProbe, obs::FaultKind::None);
    return false;
  }
  return true;
}

void ConnectionPool::record_fault(obs::TraceEventType type, obs::FaultKind fault) {
  obs::TraceEvent event{sim_.now(), type};
  event.fault = fault;
  config_.trace_bus.record(event);
}

ConnectionPool::OriginState& ConnectionPool::origin_state(const std::string& domain) {
  auto& state = origins_[domain];
  if (!state.info) {
    state.info = resolver_(domain);
    H3CDN_ENSURES(state.info->path != nullptr);
  }
  return state;
}

std::shared_ptr<Session> ConnectionPool::make_session(const std::string& domain,
                                                      const OriginInfo& origin,
                                                      HttpVersion version) {
  const tls::TransportKind kind =
      version == HttpVersion::H3 ? tls::TransportKind::Quic : tls::TransportKind::Tcp;
  const tls::TlsVersion tls_version =
      kind == tls::TransportKind::Quic ? tls::TlsVersion::Tls13 : origin.tls_version;

  tls::HandshakeMode mode = tls::HandshakeMode::Fresh;
  if (tickets_ != nullptr) mode = tickets_->best_mode(domain, sim_.now(), kind);
  if (!config_.allow_zero_rtt && mode == tls::HandshakeMode::ZeroRtt) {
    mode = tls::HandshakeMode::Resumed;
  }

  transport::TransportConfig tconfig = config_.transport;
  tconfig.domain = domain;
  tconfig.handshake_admission = origin.handshake_admission;
  tconfig.connection_release = origin.connection_release;
  // Mature H2 stacks schedule by the browser's fine-grained priority
  // signals; 2022-era H3 stacks supported at best coarse RFC 9218 urgency.
  tconfig.respect_priorities = true;
  tconfig.priority_coarseness = version == HttpVersion::H3 ? 3 : 1;
  auto conn = transport::Connection::create(sim_, *origin.path, kind, tls_version, mode,
                                            rng_.fork(domain).fork(stats_.connections_created),
                                            std::move(tconfig));
  if (tickets_ != nullptr) {
    conn->set_ticket_sink([store = tickets_](tls::SessionTicket t) { store->store(std::move(t)); });
  }
  obs::MetricsRegistry* registry = obs::MetricsRegistry::global();
  if (registry != nullptr && !config_.trace_label.empty()) {
    const obs::TraceHandle trace = registry->traces().open_connection(
        config_.trace_label + "/" + domain + "/" + to_string(version));
    if (!trace) obs::count(kTracesDropped);
    conn->set_trace(trace);
  }

  ++stats_.connections_created;
  switch (version) {
    case HttpVersion::H1_1:
      obs::count(kPoolConnectionsH1, sim_.now());
      break;
    case HttpVersion::H2:
      obs::count(kPoolConnectionsH2, sim_.now());
      break;
    case HttpVersion::H3:
      obs::count(kPoolConnectionsH3, sim_.now());
      break;
  }
  if (mode != tls::HandshakeMode::Fresh) {
    ++stats_.resumed_connections;
    obs::count(kPoolResumedConnections, sim_.now());
  }
  if (mode == tls::HandshakeMode::ZeroRtt) ++stats_.zero_rtt_connections;

  auto session = Session::create(sim_, std::move(conn), version, config_.session);
  // 1-based, pool-scoped: the id shows up in waterfalls and EntryTimings.
  session->set_connection_id(stats_.connections_created);
  // Death notification: evacuated orphans come back to the pool, which
  // decides between H2 fallback, a fresh same-protocol dial, or giving up.
  std::weak_ptr<Session> weak = session;
  session->set_on_dead([this, domain, version, weak](transport::ConnectionError error,
                                                     std::vector<Session::Orphan> orphans) {
    on_session_dead(domain, version, weak.lock(), error, std::move(orphans));
  });
  session->start();
  return session;
}

std::shared_ptr<Session> ConnectionPool::h1_session(const std::string& domain,
                                                    OriginState& state) {
  // Prefer a fully idle keep-alive connection; otherwise open a new one up to
  // the browser's per-origin cap; otherwise queue on the least-loaded one.
  for (auto& s : state.h1) {
    if (s->in_flight() == 0 && s->queued() == 0) return s;
  }
  if (state.h1.size() < config_.h1_max_connections_per_origin) {
    state.h1.push_back(make_session(domain, *state.info, HttpVersion::H1_1));
    return state.h1.back();
  }
  std::shared_ptr<Session> best;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (auto& s : state.h1) {
    const std::size_t load = s->in_flight() + s->queued();
    if (load < best_load) {
      best_load = load;
      best = s;
    }
  }
  return best;
}

std::shared_ptr<Session> ConnectionPool::session_for(const std::string& domain,
                                                     OriginState& state, HttpVersion version) {
  switch (version) {
    case HttpVersion::H1_1:
      return h1_session(domain, state);
    case HttpVersion::H2: {
      const std::string& key =
          state.info->coalesce_key.empty() ? domain : state.info->coalesce_key;
      auto& slot = h2_sessions_[key];
      if (!slot) slot = make_session(domain, *state.info, HttpVersion::H2);
      return slot;
    }
    case HttpVersion::H3:
      if (!state.h3) state.h3 = make_session(domain, *state.info, HttpVersion::H3);
      return state.h3;
  }
  H3CDN_ASSERT(false);
  return nullptr;
}

void ConnectionPool::fetch(const Request& request, FetchDone done) {
  H3CDN_EXPECTS(!request.domain.empty());
  obs::count(kEntriesSubmitted, sim_.now());
  auto& state = origin_state(request.domain);
  HttpVersion version = protocol_for(*state.info);
  if (config_.protocol_hint && state.info->supports_h2) {
    const HttpVersion default_pick = version;
    const auto hint = config_.protocol_hint(request.domain);
    if (hint == HttpVersion::H2) version = HttpVersion::H2;
    if (hint == HttpVersion::H3 && config_.h3_enabled && state.info->supports_h3) {
      version = HttpVersion::H3;
    }
    if (version != default_pick) obs::count(kHintOverrides);
  }
  // Alt-Svc brokenness: a host whose H3 died routes to H2 until the timed
  // re-probe (h3_broken clears an expired mark as a side effect).
  if (version == HttpVersion::H3 && config_.h3_fallback_enabled && h3_broken(request.domain)) {
    version = HttpVersion::H2;
  }
  // Per-edge circuit breaker (advisory, docs/RESILIENCE.md): an open H3
  // breaker demotes new dials to H2 — never refuses the request outright —
  // so an enabled breaker cannot reduce liveness. allow() also meters the
  // half-open re-probes.
  resilience::Engine* eng = engine();
  if (eng != nullptr && version == HttpVersion::H3 && state.info->supports_h2 &&
      !eng->breakers().get(request.domain, "h3").allow(sim_.now())) {
    version = HttpVersion::H2;
    obs::count(kBreakerDemotions, sim_.now());
  }

  std::shared_ptr<Session> session = session_for(request.domain, state, version);
  Request routed = request;
  if (config_.think_time) routed.server_think = config_.think_time(routed, version);
  if (config_.server_hold) routed.server_hold = config_.server_hold(routed, version);
  if (eng != nullptr) {
    FetchDone wrapped = with_resilience(routed, version, std::move(done));
    session->submit(routed, std::move(wrapped));
  } else {
    session->submit(routed, std::move(done));
  }
}

FetchDone ConnectionPool::with_resilience(const Request& routed, HttpVersion version,
                                          FetchDone done) {
  resilience::Engine* eng = engine();
  H3CDN_EXPECTS(eng != nullptr);
  // First-result-wins arbitration between the primary dispatch and an
  // optional hedge copy. A typed failure only settles the pair once no other
  // copy is still outstanding, so a hedge can save a request whose primary
  // exhausted its retries.
  struct HedgeState {
    bool settled = false;
    bool hedged = false;
    int outstanding = 1;
    sim::EventId timer = 0;
    FetchDone done;
  };
  auto st = std::make_shared<HedgeState>();
  st->done = std::move(done);
  const std::string domain = routed.domain;
  const TimePoint submitted = sim_.now();

  auto wrap = [this, st, eng, domain](bool is_hedge_copy) -> FetchDone {
    return [this, st, eng, domain, is_hedge_copy](const EntryTimings& t) {
      if (st->settled) return;  // losing copy finishing after the winner
      if (t.failed && st->outstanding > 1) {
        --st->outstanding;  // the other copy may still succeed
        return;
      }
      st->settled = true;
      if (st->timer != 0) {
        sim_.cancel(st->timer);
        st->timer = 0;
      }
      if (st->hedged) {
        if (t.failed) {
          obs::count(kHedgesCancelled, sim_.now());
        } else if (is_hedge_copy) {
          obs::count(kHedgesWon, sim_.now());
        } else {
          obs::count(kHedgesLost, sim_.now());
        }
      }
      if (!t.failed) {
        eng->hedge_trigger().observe(t.total());
        eng->breakers().get(domain, to_string(t.version)).record(sim_.now(), true);
      }
      auto deliver = std::move(st->done);
      st->done = nullptr;
      deliver(t);
    };
  };

  // Hedge trigger: once the latency tracker is warm, a request still
  // unsettled past the observed tail (p95 by default) gets a duplicate copy,
  // preferably on the OTHER protocol so it rides an independent connection
  // that does not share fate with the primary's transport.
  if (auto delay = eng->hedge_trigger().delay()) {
    Request copy = routed;
    st->timer = sim_.schedule_in(
        *delay, [this, st, copy = std::move(copy), version, submitted, wrap,
                 alive = std::weak_ptr<char>(alive_)]() mutable {
          if (alive.expired()) return;  // pool gone; the page already finished
          st->timer = 0;
          if (st->settled) return;
          st->hedged = true;
          ++st->outstanding;
          obs::count(kHedgesLaunched, sim_.now());
          auto& state = origin_state(copy.domain);
          HttpVersion hedge_version = version;
          if (version == HttpVersion::H3) {
            hedge_version = HttpVersion::H2;
          } else if (state.info->supports_h2 && config_.h3_enabled && state.info->supports_h3 &&
                     !(config_.h3_fallback_enabled && h3_broken(copy.domain))) {
            hedge_version = HttpVersion::H3;
          }
          // Rescued-style submission keeps the ORIGINAL submission time, so
          // a winning hedge reports honest page-level phase timings (the
          // pre-hedge wait lands in its "blocked" phase).
          Session::Orphan dup{std::move(copy), wrap(true), submitted, 0, 0};
          route_rescue(std::move(dup), hedge_version);
        });
  }
  return wrap(false);
}

void ConnectionPool::on_session_dead(const std::string& domain, HttpVersion version,
                                     const std::shared_ptr<Session>& session,
                                     transport::ConnectionError error,
                                     std::vector<Session::Orphan> orphans) {
  ++stats_.connection_deaths;
  obs::count(kPoolConnectionDeaths, sim_.now());
  const bool refused = error == transport::ConnectionError::Refused;
  const obs::FaultKind fault = refused ? obs::FaultKind::Refused
                               : error == transport::ConnectionError::Blackhole
                                   ? obs::FaultKind::Blackhole
                               : error == transport::ConnectionError::Killed
                                   ? obs::FaultKind::Outage
                                   : obs::FaultKind::HandshakeTimeout;

  // Deregister the corpse so the next dial creates a fresh connection.
  if (session) {
    auto state_it = origins_.find(domain);
    if (state_it != origins_.end()) {
      auto& state = state_it->second;
      if (state.h3 == session) state.h3.reset();
      std::erase(state.h1, session);
    }
    for (auto it = h2_sessions_.begin(); it != h2_sessions_.end(); ++it) {
      if (it->second == session) {
        h2_sessions_.erase(it);
        break;
      }
    }
  }

  resilience::Engine* eng = engine();
  // fail_orphan runs the entry's completion callback, which can finish the
  // page and destroy this pool: the orphan loops below stop touching it once
  // the liveness token expires.
  const std::weak_ptr<char> alive = alive_;

  // Whether a retry would exceed its budgets; None means "retry allowed".
  // Deadlines only exist under the engine; the attempt cap always does.
  auto past_budget = [&](const Session::Orphan& orphan) -> FailureReason {
    const int max_attempts = eng != nullptr ? eng->retry().max_attempts
                                            : config_.max_request_retries;
    if (orphan.attempts >= max_attempts) return FailureReason::RetriesExhausted;
    if (eng != nullptr) {
      const resilience::RetryPolicy& rp = eng->retry();
      if (rp.request_deadline > Duration::zero() &&
          sim_.now() - orphan.submitted >= rp.request_deadline) {
        return FailureReason::DeadlineExceeded;
      }
      if (rp.page_budget > Duration::zero() && sim_.now() - created_at_ >= rp.page_budget) {
        return FailureReason::DeadlineExceeded;
      }
    }
    return FailureReason::None;
  };
  // Range resumption: keep the delivered-byte prefix only when the engine
  // says so; zeroing it reproduces the legacy full-re-download rescue.
  auto prepare_resume = [&](Session::Orphan& orphan) {
    if (eng != nullptr && eng->retry().resume_enabled) {
      if (orphan.bytes_received > 0) {
        const std::size_t saved =
            std::min(orphan.bytes_received, orphan.request.response_bytes);
        obs::count(kResumedRequests, sim_.now());
        obs::count(kResumedBytes, sim_.now(), saved);
      }
    } else {
      orphan.bytes_received = 0;
    }
  };

  // A refusal means "server busy", not "protocol broken": never mark H3
  // broken for it, retry on the SAME protocol after a jittered exponential
  // backoff so the herd does not re-arrive in lockstep. Refusals are also
  // kept out of the per-edge circuit breaker and the DNS health score below:
  // capacity pushback is not a path or protocol failure.
  if (refused) {
    ++stats_.connections_refused;
    obs::count(kPoolConnectionsRefused, sim_.now());
    for (auto& orphan : orphans) {
      if (alive.expired()) return;
      if (const FailureReason reason = past_budget(orphan); reason != FailureReason::None) {
        fail_orphan(std::move(orphan), version, reason);
        continue;
      }
      ++stats_.requests_rescued;
      ++stats_.refusal_retries;
      obs::count(kPoolRequestsRescued, sim_.now());
      obs::count(kPoolRefusalRetries, sim_.now());
      if (eng != nullptr) obs::count(kRetries, sim_.now());
      record_fault(obs::TraceEventType::FallbackTriggered, fault);
      prepare_resume(orphan);
      const int exponent = std::max(0, orphan.attempts - 1);
      Duration backoff{config_.refusal_backoff_base.count() << std::min(exponent, 6)};
      backoff += Duration{static_cast<std::int64_t>(
          static_cast<double>(backoff.count()) *
          rng_.uniform(0.0, config_.refusal_backoff_jitter))};
      sim_.schedule_in(backoff, [this, orphan = std::move(orphan), version,
                                 alive = std::weak_ptr<char>(alive_)]() mutable {
        if (alive.expired()) return;  // pool gone; the page already finished
        route_rescue(std::move(orphan), version);
      });
    }
    return;
  }

  // Non-refused deaths feed the per-edge breaker's rolling failure window
  // (one dial-outcome sample per death) and, when the environment wired a
  // failover hook, demote this origin's current address and force the next
  // dial to re-resolve onto a healthier record (docs/RESILIENCE.md).
  if (eng != nullptr) {
    eng->breakers().get(domain, to_string(version)).record(sim_.now(), false);
  }
  if (auto state_it = origins_.find(domain);
      state_it != origins_.end() && state_it->second.info &&
      state_it->second.info->connection_failed) {
    auto notify = state_it->second.info->connection_failed;
    state_it->second.info.reset();
    notify(sim_.now());
  }

  // An H3 death marks the host broken and degrades it to H2 (Chrome's
  // Alt-Svc brokenness). TCP deaths retry on a fresh same-protocol session.
  HttpVersion reroute = version;
  if (version == HttpVersion::H3 && config_.h3_fallback_enabled) {
    h3_broken_until_[domain] = sim_.now() + config_.h3_broken_ttl;
    ++stats_.h3_fallbacks;
    obs::count(kPoolH3Fallbacks, sim_.now());
    record_fault(obs::TraceEventType::H3BrokenMarked, fault);
    reroute = HttpVersion::H2;
  }

  for (auto& orphan : orphans) {
    if (alive.expired()) return;
    if (const FailureReason reason = past_budget(orphan); reason != FailureReason::None) {
      fail_orphan(std::move(orphan), version, reason);
      continue;
    }
    ++stats_.requests_rescued;
    obs::count(kPoolRequestsRescued, sim_.now());
    record_fault(obs::TraceEventType::FallbackTriggered, fault);
    prepare_resume(orphan);
    if (eng != nullptr) {
      // Engine rescues back off (exponential + deterministic jitter) instead
      // of redialling instantly, so a dead edge is not hammered in lockstep.
      obs::count(kRetries, sim_.now());
      const Duration backoff = eng->retry().backoff_for(orphan.attempts, rng_);
      sim_.schedule_in(backoff, [this, orphan = std::move(orphan), reroute,
                                 alive = std::weak_ptr<char>(alive_)]() mutable {
        if (alive.expired()) return;  // pool gone; the page already finished
        route_rescue(std::move(orphan), reroute);
      });
    } else {
      route_rescue(std::move(orphan), reroute);
    }
  }
}

void ConnectionPool::fail_orphan(Session::Orphan orphan, HttpVersion version,
                                 FailureReason reason) {
  H3CDN_EXPECTS(reason != FailureReason::None);
  ++stats_.requests_failed;
  obs::count(kEntriesFailed, sim_.now());
  if (reason == FailureReason::DeadlineExceeded) obs::count(kDeadlineFailures, sim_.now());
  EntryTimings t;
  t.started = orphan.submitted;
  t.finished = sim_.now();
  t.version = version;
  t.attempts = std::max(orphan.attempts, 1);
  t.failed = true;
  t.failure = reason;
  auto done = std::move(orphan.done);
  done(t);
}

void ConnectionPool::route_rescue(Session::Orphan orphan, HttpVersion preferred) {
  // Coalesced H2 sessions serve several domains, so routing is per orphan.
  auto& state = origin_state(orphan.request.domain);
  HttpVersion version = preferred;
  if (!state.info->supports_h2) version = HttpVersion::H1_1;
  if (version == HttpVersion::H3 &&
      (!config_.h3_enabled || !state.info->supports_h3 ||
       (config_.h3_fallback_enabled && h3_broken(orphan.request.domain)))) {
    version = HttpVersion::H2;
  }
  std::shared_ptr<Session> session = session_for(orphan.request.domain, state, version);
  // The protocol may have changed; the server-side cost model is per-protocol.
  if (config_.think_time) {
    orphan.request.server_think = config_.think_time(orphan.request, version);
  }
  // Re-derive the response gate too: after a mid-tier kill the rescue dials
  // the direct path, and the factory then returns an empty hold.
  if (config_.server_hold) {
    orphan.request.server_hold = config_.server_hold(orphan.request, version);
  }
  session->submit_rescued(std::move(orphan));
}

void ConnectionPool::close_all() {
  for (auto& [key, session] : h2_sessions_) session->close();
  for (auto& [domain, state] : origins_) {
    if (state.h3) state.h3->close();
    for (auto& s : state.h1) s->close();
  }
  h2_sessions_.clear();
  origins_.clear();
}

std::size_t ConnectionPool::session_count() const {
  std::size_t n = h2_sessions_.size();
  for (const auto& [domain, state] : origins_) {
    n += (state.h3 ? 1 : 0) + state.h1.size();
  }
  return n;
}

}  // namespace h3cdn::http
