// The load generator: the router side of BGP sessions that
// gill-collectord dials (--dial), replaying a corpus of UPDATEs encoded
// once with wire::encode during set-up. Two sending modes:
//   * flood — flow-controlled: every session writes whenever its socket
//     accepts bytes (one thread drives every session through poll());
//   * paced — open loop: each update has a due time drawn from the
//     long-memory interarrival model, and lateness against it is recorded.
// Peers advertise RFC 4724 graceful restart, as production routers do.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bgp/update.hpp"

namespace perfbench {

/// A corpus encoded once: one UPDATE message per update, back to back.
struct EncodedCorpus {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> ends;  // end offset of message i in `bytes`
  std::vector<gill::bgp::Update> updates;

  std::size_t size() const { return ends.size(); }
};

/// Encodes `updates` as UPDATE messages. With `tag`, every announcement
/// carries its sequence number as two communities (65534:hi, 65535:lo) so
/// a stream subscriber can identify it.
EncodedCorpus encode_corpus(std::vector<gill::bgp::Update> updates, bool tag);

/// The sequence number a tagged update carries; -1 when untagged.
long corpus_tag(const gill::bgp::CommunitySet& communities);

/// One listening router endpoint that accepts a single collector session.
class PeerSession {
 public:
  PeerSession() = default;
  ~PeerSession();
  PeerSession(const PeerSession&) = delete;
  PeerSession& operator=(const PeerSession&) = delete;

  /// Binds 127.0.0.1 on an ephemeral port.
  bool listen();
  std::uint16_t port() const { return port_; }
  /// Accepts the collector's connection and completes the OPEN/KEEPALIVE
  /// exchange as AS `as` with graceful restart advertised.
  bool handshake(std::uint32_t as, double timeout_s);
  int fd() const { return fd_; }

 private:
  int listen_fd_ = -1;
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Result of a flow-controlled replay.
struct FloodResult {
  bool ok = false;
  double start_s = 0;  // first byte handed to a socket
  double end_s = 0;    // last byte handed to a socket
  double cpu_s = 0;    // generator thread CPU while sending
  /// Per session: (time, messages fully written) progress samples.
  std::vector<std::vector<std::pair<double, std::size_t>>> progress;
};

/// Writes each session's corpus as fast as its socket accepts bytes; the
/// collector's own traffic (keepalives, End-of-RIB) is read and dropped.
FloodResult flood(const std::vector<PeerSession*>& sessions,
                  const std::vector<const EncodedCorpus*>& corpora,
                  double timeout_s);

/// Result of an open-loop paced replay.
struct PacedResult {
  bool ok = false;
  std::vector<double> due_s;   // due time of each update sent
  std::vector<double> late_ms; // send time minus due time, per update
  std::size_t sent = 0;
};

/// Sends corpus message i at `due_offsets_ms[i]` after `start_s`.
PacedResult paced(PeerSession& session, const EncodedCorpus& corpus,
                  const std::vector<double>& due_offsets_ms, double start_s);

}  // namespace perfbench
