#include "tls/handshake.h"

#include "obs/metrics.h"
#include "util/check.h"

namespace h3cdn::tls {

namespace {

const obs::MetricId kHandshakeFresh{"tls.handshake.fresh"};
const obs::MetricId kHandshakeResumed{"tls.handshake.resumed"};
const obs::MetricId kHandshakeZeroRtt{"tls.handshake.zero_rtt"};
const obs::MetricId kHandshakeComputeMs{"tls.handshake.compute_ms"};

}  // namespace

int handshake_rtts(TransportKind transport, TlsVersion version, HandshakeMode mode) {
  if (transport == TransportKind::Quic) {
    // QUIC merges the transport and TLS 1.3 handshakes (RFC 9001 §4.1).
    H3CDN_EXPECTS(version == TlsVersion::Tls13);
    switch (mode) {
      case HandshakeMode::Fresh: return 1;
      case HandshakeMode::Resumed: return 1;  // PSK but no early data
      case HandshakeMode::ZeroRtt: return 0;
    }
  }
  // TCP: 1 RTT for SYN/SYN-ACK before TLS can start.
  constexpr int kTcp = 1;
  switch (mode) {
    case HandshakeMode::Fresh:
      return kTcp + (version == TlsVersion::Tls12 ? 2 : 1);
    case HandshakeMode::Resumed:
      // Abbreviated TLS1.2 resumption or TLS1.3 PSK: one TLS round trip.
      return kTcp + 1;
    case HandshakeMode::ZeroRtt:
      // TLS 1.3 early data over TCP: request rides the ClientHello, but the
      // TCP handshake round trip is unavoidable (paper §VI-D).
      return kTcp;
  }
  H3CDN_ASSERT(false);
  return kTcp;
}

int handshake_client_flights(TransportKind transport, TlsVersion version, HandshakeMode mode) {
  // One client-side control packet per round trip, plus the final Finished.
  return handshake_rtts(transport, version, mode) + 1;
}

std::size_t handshake_server_flight_bytes(TlsVersion version, HandshakeMode mode) {
  switch (mode) {
    case HandshakeMode::Fresh:
      // ServerHello + certificate chain (~3-4 KB) + key exchange.
      return version == TlsVersion::Tls12 ? 4200 : 3600;
    case HandshakeMode::Resumed:
    case HandshakeMode::ZeroRtt:
      return 300;  // ServerHello/EncryptedExtensions only
  }
  return 300;
}

Duration handshake_compute_cost(TlsVersion version, HandshakeMode mode) {
  // Called once per certificate-bearing server flight, so it doubles as the
  // per-handshake observation point for the metrics registry.
  Duration cost = usec(150);  // PSK binder check + key schedule only
  switch (mode) {
    case HandshakeMode::Fresh:
      // Signature generation + verification; TLS1.2's RSA-heavy suites are
      // modelled slightly more expensive than TLS1.3's ECDSA defaults.
      cost = version == TlsVersion::Tls12 ? usec(1800) : usec(1200);
      obs::count(kHandshakeFresh);
      break;
    case HandshakeMode::Resumed:
      obs::count(kHandshakeResumed);
      break;
    case HandshakeMode::ZeroRtt:
      obs::count(kHandshakeZeroRtt);
      break;
  }
  obs::observe_ms(kHandshakeComputeMs, cost);
  return cost;
}

const char* to_string(TlsVersion v) {
  return v == TlsVersion::Tls12 ? "TLSv1.2" : "TLSv1.3";
}

const char* to_string(TransportKind t) { return t == TransportKind::Tcp ? "tcp" : "quic"; }

const char* to_string(HandshakeMode m) {
  switch (m) {
    case HandshakeMode::Fresh: return "fresh";
    case HandshakeMode::Resumed: return "resumed";
    case HandshakeMode::ZeroRtt: return "0-rtt";
  }
  return "?";
}

}  // namespace h3cdn::tls
