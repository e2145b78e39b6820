#include "tls/ticket_store.h"

#include "obs/metrics.h"

namespace h3cdn::tls {

namespace {

const obs::MetricId kTicketsStored{"tls.tickets.stored"};
const obs::MetricId kTicketsMisses{"tls.tickets.misses"};
const obs::MetricId kTicketsHits{"tls.tickets.hits"};

}  // namespace

void SessionTicketStore::store(SessionTicket ticket) {
  affinity_.assert_same_shard();
  obs::count(kTicketsStored);
  tickets_[ticket.domain] = std::move(ticket);
}

std::optional<SessionTicket> SessionTicketStore::find(const std::string& domain,
                                                      TimePoint now) const {
  affinity_.assert_same_shard();
  auto it = tickets_.find(domain);
  if (it == tickets_.end()) {
    ++misses_;
    obs::count(kTicketsMisses);
    return std::nullopt;
  }
  const SessionTicket& t = it->second;
  if (now >= t.issued_at + t.lifetime) {
    ++misses_;
    obs::count(kTicketsMisses);
    return std::nullopt;
  }
  ++hits_;
  obs::count(kTicketsHits);
  return t;
}

HandshakeMode SessionTicketStore::best_mode(const std::string& domain, TimePoint now,
                                            TransportKind transport) const {
  const auto ticket = find(domain, now);
  if (!ticket) return HandshakeMode::Fresh;
  if (transport == TransportKind::Quic) {
    // QUIC is TLS1.3-only; a TLS1.2 ticket (from an old H2 connection to a
    // legacy stack) cannot seed it.
    if (ticket->version != TlsVersion::Tls13) return HandshakeMode::Fresh;
    return ticket->early_data_allowed ? HandshakeMode::ZeroRtt : HandshakeMode::Resumed;
  }
  // Over TCP, browsers resume the TLS session but do NOT send TLS 1.3 early
  // data (Chrome ships with early data disabled), so a resumed H2 connection
  // still pays the full TCP+TLS round trips — this asymmetry against H3's
  // 0-RTT is exactly the paper's §VI-D argument.
  return HandshakeMode::Resumed;
}

void SessionTicketStore::erase(const std::string& domain) {
  affinity_.assert_same_shard();
  tickets_.erase(domain);
}

void SessionTicketStore::clear() {
  affinity_.assert_same_shard();
  tickets_.clear();
}

void SessionTicketStore::remove_expired(TimePoint now) {
  affinity_.assert_same_shard();
  for (auto it = tickets_.begin(); it != tickets_.end();) {
    if (now >= it->second.issued_at + it->second.lifetime) {
      it = tickets_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace h3cdn::tls
