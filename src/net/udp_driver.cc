#include "src/net/udp_driver.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "src/common/strings.h"
#include "src/trace/metrics.h"

namespace p2 {

namespace {

// Parses "127.0.0.1:9000" into a sockaddr. Returns false on malformed input.
bool ParseAddr(const std::string& addr, sockaddr_in* out) {
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos) {
    return false;
  }
  std::string host = addr.substr(0, colon);
  int port = std::atoi(addr.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    return false;
  }
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<uint16_t>(port));
  return inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1;
}

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

UdpDriver::UdpDriver(Fleet* fleet) : fleet_(fleet), net_(&fleet->network()) {
  net_->SetExternalSender(
      [this](const std::string& dst, const std::string& bytes) {
        SendExternal(dst, bytes);
      });
  // Every non-self tuple goes through the sockets, even between two nodes of
  // this process: single-process deployments exercise the real transport.
  net_->SetExternalOnly(true);
  max_datagram_ = fleet->config().udp_max_datagram;
}

UdpDriver::~UdpDriver() {
  net_->SetExternalOnly(false);
  net_->SetExternalSender(nullptr);
  for (const Endpoint& ep : endpoints_) {
    if (ep.fd >= 0) {
      ::close(ep.fd);
    }
  }
}

NodeHandle UdpDriver::CreateNode(const std::string& name, uint16_t port,
                                 NodeOptions options, std::string* error) {
  const std::string& host = fleet_->config().udp_host;
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    *error = "socket() failed";
    return NodeHandle();
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  // Stabilization rounds arrive in fleet-wide bursts; the kernel default
  // receive buffer (~208KB) can overflow while the loop is busy elsewhere,
  // silently dropping best-effort traffic. Best-effort is a sanctioned loss
  // class, but convergence is much faster without kernel-side drops.
  int rcvbuf = 1 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in bind_addr;
  std::memset(&bind_addr, 0, sizeof(bind_addr));
  bind_addr.sin_family = AF_INET;
  bind_addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &bind_addr.sin_addr) != 1) {
    *error = "bad udp_host: " + host;
    ::close(fd);
    return NodeHandle();
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&bind_addr), sizeof(bind_addr)) != 0) {
    *error = StrFormat("bind(%s:%u) failed", host.c_str(), port);
    ::close(fd);
    return NodeHandle();
  }
  sockaddr_in actual;
  socklen_t len = sizeof(actual);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) != 0) {
    *error = "getsockname failed";
    ::close(fd);
    return NodeHandle();
  }
  std::string socket_addr = StrFormat("%s:%u", host.c_str(), ntohs(actual.sin_port));
  std::string addr = name.empty() ? socket_addr : name;
  if (net_->GetNode(addr) != nullptr) {
    *error = "duplicate node address: " + addr;
    ::close(fd);
    return NodeHandle();
  }
  Node* node = net_->AddNode(addr, options);
  endpoints_.push_back(Endpoint{fd, node, addr, socket_addr});
  peers_[addr] = socket_addr;
  return fleet_->Handle(addr);
}

void UdpDriver::RegisterPeer(const std::string& name,
                             const std::string& socket_addr) {
  peers_[name] = socket_addr;
}

std::string UdpDriver::SocketAddrOf(const std::string& name) const {
  auto it = peers_.find(name);
  return it == peers_.end() ? std::string() : it->second;
}

std::map<std::string, std::string> UdpDriver::LocalMap() const {
  std::map<std::string, std::string> out;
  for (const Endpoint& ep : endpoints_) {
    out[ep.name] = ep.socket_addr;
  }
  return out;
}

void UdpDriver::SetEgressLossRate(double rate, uint64_t seed) {
  egress_loss_ = rate;
  egress_rng_ = Rng(seed);
}

void UdpDriver::SendExternal(const std::string& dst, const std::string& bytes) {
  if (endpoints_.empty()) {
    ++unroutable_dropped_;
    return;
  }
  // Resolve the logical destination through the peer map; a literal "host:port"
  // destination (legacy addressing) routes as-is.
  auto it = peers_.find(dst);
  const std::string& socket_addr = it != peers_.end() ? it->second : dst;
  sockaddr_in to;
  if (!ParseAddr(socket_addr, &to)) {
    ++unroutable_dropped_;
    return;
  }
  // Loss is drawn per envelope, before framing, so a given seed drops the same
  // tuples whatever the batching layout — retransmit tests stay deterministic.
  if (egress_loss_ > 0 && egress_rng_.NextDouble() < egress_loss_) {
    ++envelopes_dropped_;
    return;
  }
  PeerOut& out = outgoing_[socket_addr];
  if (out.batch.empty()) {
    out.to = to;
  } else if (out.batch.frame_size() + BatchFrameBuilder::CostOf(bytes) >
             max_datagram_) {
    // Keep the frame under the datagram budget; a single envelope larger than
    // the budget still goes out (alone) — UDP loopback allows up to ~64KB.
    FlushPeer(&out);
    out.to = to;
  }
  out.batch.Add(bytes);
}

void UdpDriver::FlushPeer(PeerOut* out) {
  if (out->batch.empty()) {
    return;
  }
  size_t count = out->batch.count();
  std::string frame = out->batch.Take();
  ssize_t sent = ::sendto(endpoints_[0].fd, frame.data(), frame.size(), 0,
                          reinterpret_cast<sockaddr*>(&out->to), sizeof(out->to));
  if (sent < 0) {
    // A full socket buffer behaves like congestion loss: the reliable layer
    // retransmits, best-effort gossip refreshes on its own period.
    envelopes_dropped_ += count;
    return;
  }
  ++datagrams_sent_;
  envelopes_sent_ += count;
}

void UdpDriver::FlushBatches() {
  for (auto& [addr, out] : outgoing_) {
    FlushPeer(&out);
  }
}

void UdpDriver::DeliverDatagram(Node* node, const char* data, size_t len) {
  std::string datagram(data, len);
  std::vector<std::string> envelopes;
  // Every sender frames, so an unframed datagram is as corrupt as a bad frame.
  if (!IsBatchFrame(datagram) || !DecodeBatchFrame(datagram, &envelopes)) {
    ++frame_decode_errors_;
    return;
  }
  envelopes_received_ += envelopes.size();
  for (const std::string& env : envelopes) {
    node->ReceiveBytes(env);
  }
}

double UdpDriver::WallNow() const { return SteadySeconds(); }

void UdpDriver::RunFor(double wall_seconds) {
  // Re-anchor wall->virtual per call: each RunFor(dt) advances the virtual clock
  // by exactly dt. The old one-shot anchor mapped absolute wall time into
  // virtual time, so wall time spent *between* RunFor calls leaked into the
  // virtual clock and periodic rules over-fired after any pause (the drift grew
  // with every gap; see UdpDriverTest.RepeatedShortSlicesDoNotDrift).
  const double wall_start = WallNow();
  const double virtual_base = net_->Now();
  const double virtual_end = virtual_base + wall_seconds;
  std::vector<pollfd> fds(endpoints_.size());
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    fds[i].fd = endpoints_[i].fd;
    fds[i].events = POLLIN;
  }
  char buffer[65536];
  while (true) {
    // Fire every timer due by the current wall instant (absolute mapping within
    // the call: no intra-call drift either), then put the produced envelopes on
    // the wire.
    double virtual_now =
        std::min(virtual_base + (WallNow() - wall_start), virtual_end);
    // Refresh the udp_* gauges ahead of any sweep that RunUntil executes, so
    // sysStat rows and metrics exports taken mid-run see current transport
    // counters (≤0.5 virtual seconds stale) rather than the previous RunFor's.
    if (virtual_now >= next_gauge_publish_) {
      PublishGauges();
      next_gauge_publish_ = virtual_now + 0.5;
    }
    net_->RunUntil(virtual_now);
    FlushBatches();
    if (virtual_now >= virtual_end) {
      break;
    }
    // Sleep until the next timer or the deadline, whichever comes first, but
    // wake for any datagram. NextEventTime() is +inf on an idle scheduler — the
    // deadline bounds the sleep; no busy-wait, no 100ms polling quantum.
    double next_virtual = net_->scheduler().NextEventTime();
    double until_virtual = std::min(next_virtual, virtual_end);
    double wait = (wall_start + (until_virtual - virtual_base)) - WallNow();
    int timeout_ms =
        wait <= 0 ? 0
                  : static_cast<int>(std::min(std::ceil(wait * 1000.0), 3.6e6));
    int ready = ::poll(fds.empty() ? nullptr : fds.data(),
                       static_cast<nfds_t>(fds.size()), timeout_ms);
    if (ready <= 0) {
      continue;
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) {
        continue;
      }
      while (true) {
        ssize_t n = ::recv(fds[i].fd, buffer, sizeof(buffer), 0);
        if (n <= 0) {
          break;  // EWOULDBLOCK: drained
        }
        ++datagrams_received_;
        DeliverDatagram(endpoints_[i].node, buffer, static_cast<size_t>(n));
      }
    }
    // Responses triggered by the deliveries are flushed at the top of the next
    // iteration, right after their timers run — within the same pump pass, so
    // request/reply latency stays sub-millisecond on loopback.
  }
  PublishGauges();
}

// Transport counters ride the existing observability surface: published as
// udp_* gauges on every local node, they land in sysStat and the metrics
// export at the node's next sweep.
void UdpDriver::PublishGauges() {
  for (const Endpoint& ep : endpoints_) {
    MetricsRegistry& reg = ep.node->metrics();
    reg.GetGauge("udp_datagrams_sent")->Set(static_cast<int64_t>(datagrams_sent_));
    reg.GetGauge("udp_datagrams_received")
        ->Set(static_cast<int64_t>(datagrams_received_));
    reg.GetGauge("udp_envelopes_sent")->Set(static_cast<int64_t>(envelopes_sent_));
    reg.GetGauge("udp_envelopes_received")
        ->Set(static_cast<int64_t>(envelopes_received_));
    reg.GetGauge("udp_batch_ratio_x1000")
        ->Set(static_cast<int64_t>(batch_ratio() * 1000.0));
  }
}

}  // namespace p2
