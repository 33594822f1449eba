#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "common.hpp"
#include "wire/messages.hpp"

namespace perfbench {

namespace {

using namespace gill;

constexpr std::uint16_t kTagHigh = 65534;
constexpr std::uint16_t kTagLow = 65535;

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK));
}

bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads and discards whatever the collector sent (non-blocking).
void drain_inbound(int fd) {
  std::uint8_t buffer[4096];
  while (::recv(fd, buffer, sizeof buffer, MSG_DONTWAIT) > 0) {
  }
}

}  // namespace

EncodedCorpus encode_corpus(std::vector<bgp::Update> updates, bool tag) {
  EncodedCorpus corpus;
  corpus.ends.reserve(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    bgp::Update& update = updates[i];
    wire::UpdateMessage message;
    const bool v4 = update.prefix.family() == net::Family::v4;
    if (update.withdrawal) {
      (v4 ? message.withdrawn : message.withdrawn_v6).push_back(update.prefix);
    } else {
      if (tag) {
        bgp::insert_community(
            update.communities,
            {kTagHigh, static_cast<std::uint16_t>(i >> 16)});
        bgp::insert_community(
            update.communities,
            {kTagLow, static_cast<std::uint16_t>(i & 0xffff)});
      }
      (v4 ? message.nlri : message.nlri_v6).push_back(update.prefix);
      message.path = update.path;
      message.communities = update.communities;
      message.next_hop = 0x0A000002;
    }
    const auto bytes = wire::encode(message);
    corpus.bytes.insert(corpus.bytes.end(), bytes.begin(), bytes.end());
    corpus.ends.push_back(corpus.bytes.size());
  }
  corpus.updates = std::move(updates);
  return corpus;
}

long corpus_tag(const bgp::CommunitySet& communities) {
  long high = -1;
  long low = -1;
  for (const bgp::Community community : communities) {
    if (community.asn == kTagHigh) high = community.value;
    if (community.asn == kTagLow) low = community.value;
  }
  return high < 0 || low < 0 ? -1 : (high << 16) | low;
}

// --- PeerSession ---------------------------------------------------------------

PeerSession::~PeerSession() {
  if (fd_ >= 0) ::close(fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool PeerSession::listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = 0;
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof address) != 0 ||
      ::listen(listen_fd_, 4) != 0) {
    return false;
  }
  socklen_t length = sizeof address;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address), &length);
  port_ = ntohs(address.sin_port);
  return true;
}

bool PeerSession::handshake(std::uint32_t as, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  pollfd waiter{listen_fd_, POLLIN, 0};
  if (::poll(&waiter, 1, static_cast<int>(timeout_s * 1000)) != 1) return false;
  fd_ = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  std::vector<std::uint8_t> pending;
  bool opened = false;
  while (now_s() < deadline) {
    pollfd readable{fd_, POLLIN, 0};
    if (::poll(&readable, 1, 50) < 0 && errno != EINTR) return false;
    std::uint8_t buffer[4096];
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, MSG_DONTWAIT);
    if (n == 0) return false;
    if (n > 0) pending.insert(pending.end(), buffer, buffer + n);
    std::size_t offset = 0;
    while (offset < pending.size()) {
      std::size_t consumed = 0;
      const auto message = wire::decode(
          std::span(pending.data() + offset, pending.size() - offset),
          consumed);
      if (!message) {
        if (consumed == 0) break;
        offset += consumed;
        continue;
      }
      offset += consumed;
      switch (wire::type_of(*message)) {
        case wire::MessageType::kOpen: {
          wire::OpenMessage open;
          open.as = as;
          open.bgp_id = 0x0A000002 + as;
          open.gr_enabled = true;
          open.gr_restart_time = 120;
          if (!send_all(fd_, wire::encode(open)) ||
              !send_all(fd_, wire::encode(wire::KeepaliveMessage{}))) {
            return false;
          }
          opened = true;
          break;
        }
        case wire::MessageType::kKeepalive:
          if (opened) return true;  // the collector confirmed: Established
          break;
        case wire::MessageType::kNotification:
          return false;
        default:
          break;
      }
    }
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  return false;
}

// --- flood ----------------------------------------------------------------------

FloodResult flood(const std::vector<PeerSession*>& sessions,
                  const std::vector<const EncodedCorpus*>& corpora,
                  double timeout_s) {
  FloodResult result;
  const std::size_t count = sessions.size();
  std::vector<std::size_t> sent(count, 0);
  std::vector<std::size_t> done_messages(count, 0);
  result.progress.resize(count);
  for (PeerSession* session : sessions) set_nonblocking(session->fd(), true);

  const double cpu_start = thread_cpu_s();
  result.start_s = now_s();
  const double deadline = result.start_s + timeout_s;
  std::size_t remaining = count;
  std::vector<pollfd> fds(count);
  while (remaining > 0 && now_s() < deadline) {
    for (std::size_t i = 0; i < count; ++i) {
      fds[i].fd = sessions[i]->fd();
      fds[i].events = static_cast<short>(
          POLLIN | (sent[i] < corpora[i]->bytes.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    if (::poll(fds.data(), count, 100) < 0 && errno != EINTR) return result;
    for (std::size_t i = 0; i < count; ++i) {
      if (fds[i].revents & (POLLERR | POLLHUP)) return result;
      if (fds[i].revents & POLLIN) drain_inbound(fds[i].fd);
      if (!(fds[i].revents & POLLOUT)) continue;
      const EncodedCorpus& corpus = *corpora[i];
      while (sent[i] < corpus.bytes.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(corpus.bytes.size() - sent[i], 256 * 1024);
        const ssize_t n = ::send(fds[i].fd, corpus.bytes.data() + sent[i],
                                 chunk, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0) return result;
        sent[i] += static_cast<std::size_t>(n);
      }
      const std::size_t messages = static_cast<std::size_t>(
          std::upper_bound(corpus.ends.begin(), corpus.ends.end(), sent[i]) -
          corpus.ends.begin());
      if (messages != done_messages[i]) {
        done_messages[i] = messages;
        result.end_s = now_s();
        result.progress[i].emplace_back(result.end_s, messages);
      }
      if (sent[i] == corpus.bytes.size()) --remaining;
    }
  }
  result.cpu_s = thread_cpu_s() - cpu_start;
  for (PeerSession* session : sessions) set_nonblocking(session->fd(), false);
  result.ok = remaining == 0;
  return result;
}

// --- paced ------------------------------------------------------------------------

PacedResult paced(PeerSession& session, const EncodedCorpus& corpus,
                  const std::vector<double>& due_offsets_ms, double start_s) {
  PacedResult result;
  const std::size_t total = std::min(corpus.size(), due_offsets_ms.size());
  result.due_s.reserve(total);
  result.late_ms.reserve(total);
  // The monotonic clock behind now_s() is CLOCK_MONOTONIC (steady_clock),
  // so due times convert directly into absolute sleeps.
  std::size_t next = 0;
  while (next < total) {
    const double due = start_s + due_offsets_ms[next] / 1000.0;
    if (due > now_s()) {
      timespec wake{};
      wake.tv_sec = static_cast<time_t>(due);
      wake.tv_nsec = static_cast<long>((due - static_cast<double>(wake.tv_sec)) * 1e9);
      ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &wake, nullptr);
    }
    // Everything already due goes out in one write.
    const double now = now_s();
    std::size_t last = next;
    while (last < total && start_s + due_offsets_ms[last] / 1000.0 <= now) {
      ++last;
    }
    if (last == next) continue;
    const std::size_t begin = next == 0 ? 0 : corpus.ends[next - 1];
    const std::size_t end = corpus.ends[last - 1];
    std::size_t written = begin;
    while (written < end) {
      const ssize_t n = ::send(session.fd(), corpus.bytes.data() + written,
                               end - written, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return result;
      written += static_cast<std::size_t>(n);
    }
    const double sent_at = now_s();
    for (std::size_t i = next; i < last; ++i) {
      const double due_i = start_s + due_offsets_ms[i] / 1000.0;
      result.due_s.push_back(due_i);
      result.late_ms.push_back((sent_at - due_i) * 1000.0);
    }
    next = last;
    drain_inbound(session.fd());
  }
  result.sent = next;
  result.ok = true;
  return result;
}

}  // namespace perfbench
