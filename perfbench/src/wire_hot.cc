/// \file wire_hot.cc
/// \brief `wire_hot`: kClients closed-loop TCP connections to the in-process
/// net::Server, one outstanding request each; ~95% queries drawn from the
/// kHotQueries hot set (which fits the result cache), ~5% edge inserts.
/// Socket read, dispatch, flush, write and the result cache do most of the
/// work; the fixpoints do little.
///
/// Oracle: read-your-writes is asserted inline on every query; after the
/// window every hot query is re-issued with min_applied_ts = the highest
/// acked ts and its answer compared with direct simulation over the
/// fixture graph plus every acked insert.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "bench.h"
#include "common/random.h"
#include "net/protocol.h"
#include "pattern/pattern_io.h"

namespace perfbench {

using namespace gpmv;

namespace {

constexpr uint64_t kInsertPercent = 5;

/// One blocking protocol client, one outstanding request at a time.
class WireClient {
 public:
  WireClient() = default;
  ~WireClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  bool Send(net::FrameKind kind, uint64_t id, const std::string& payload) {
    wire_.clear();
    net::EncodeFrame(kind, Status::Code::kOk, id, payload, &wire_);
    size_t off = 0;
    while (off < wire_.size()) {
      const ssize_t n = ::send(fd_, wire_.data() + off, wire_.size() - off, 0);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool Recv(net::Frame* out) {
    for (;;) {
      if (parser_.Next(out)) return true;
      if (!parser_.ok()) return false;
      uint8_t buf[16384];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      parser_.Feed(buf, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string wire_;
  net::FrameParser parser_{/*require_requests=*/false};
};

struct ConnResult {
  Latencies query;
  std::vector<double> ack_us, send_us;
  std::vector<EdgeUpdate> acked;
  uint64_t max_acked_ts = 0;
  Accounting acct;
  std::string failure;
};

bool IsPushback(const net::Frame& f) {
  return f.kind == net::FrameKind::kError &&
         (f.status == Status::Code::kResourceExhausted ||
          f.status == Status::Code::kDeadlineExceeded);
}

void ClientLoop(const PhaseArgs& a, const Window& w,
                const std::vector<std::string>& texts, size_t conn,
                ConnResult* r) {
  WireClient c;
  if (!c.Connect(a.stack->port())) {
    r->failure = "connect failed";
    return;
  }
  const size_t n = a.in->graph.num_nodes();
  Rng rng(Mix(a.in->seed, 500 + conn));
  uint64_t id = 0;
  while (!w.stop.load(std::memory_order_relaxed) && r->failure.empty()) {
    ++id;
    const bool is_update = rng.NextBounded(100) < kInsertPercent;
    const uint64_t req = a.spans->NextRequest();
    const Clock::time_point t0 = Clock::now();
    const bool measured = t0 >= w.measure_from;
    net::Frame f;
    if (is_update) {
      const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
      NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (u == v) v = static_cast<NodeId>((v + 1) % n);
      const EdgeUpdate op = EdgeUpdate::Insert(u, v);
      OpCount& oc = r->acct["update"];
      if (measured) ++oc.attempted;
      if (!c.Send(net::FrameKind::kUpdate, id, net::EncodeUpdateRequest(op))) {
        r->failure = "update send failed";
        break;
      }
      const Clock::time_point t1 = Clock::now();
      if (!c.Recv(&f) || f.request_id != id) {
        r->failure = "update round trip failed";
        break;
      }
      const Clock::time_point t2 = Clock::now();
      if (f.kind == net::FrameKind::kUpdateAck) {
        Result<uint64_t> ts = net::DecodeUpdateAck(f.payload);
        if (!ts.ok() || *ts == 0) {
          r->failure = "bad update ack";
          break;
        }
        r->acked.push_back(op);
        r->max_acked_ts = std::max(r->max_acked_ts, *ts);
        if (measured) {
          ++oc.succeeded;
          r->ack_us.push_back(UsBetween(t0, t2));
        }
      } else if (IsPushback(f)) {
        if (measured) ++oc.failed;
      } else {
        r->failure = "unexpected update response";
        break;
      }
      a.spans->Add(req, "client.update", "", t0, t2);
      a.spans->Add(req, "client.send", "client.update", t0, t1);
      a.spans->Add(req, "client.recv", "client.update", t1, t2);
      continue;
    }
    net::QueryRequest q;
    q.pattern_text = texts[rng.NextBounded(texts.size())];
    OpCount& oc = r->acct["query"];
    if (measured) ++oc.attempted;
    if (!c.Send(net::FrameKind::kQuery, id, net::EncodeQueryRequest(q))) {
      r->failure = "query send failed";
      break;
    }
    const Clock::time_point t1 = Clock::now();
    if (!c.Recv(&f) || f.request_id != id) {
      r->failure = "query round trip failed";
      break;
    }
    const Clock::time_point t2 = Clock::now();
    if (IsPushback(f)) {
      if (measured) ++oc.failed;
      continue;
    }
    if (f.kind != net::FrameKind::kQueryResult) {
      r->failure = "unexpected query response: " +
                   std::string(f.payload.begin(), f.payload.end());
      break;
    }
    Result<net::QueryResultFrame> qr = net::DecodeQueryResult(f.payload);
    if (!qr.ok()) {
      r->failure = "undecodable query result";
      break;
    }
    if (qr->applied_through_ts < r->max_acked_ts) {
      r->failure = "read-your-writes violation: applied_through " +
                   std::to_string(qr->applied_through_ts) + " < acked " +
                   std::to_string(r->max_acked_ts);
      break;
    }
    if (measured) {
      ++oc.succeeded;
      r->query.Add(t0, t2);
      r->send_us.push_back(UsBetween(t0, t1));
    }
    a.spans->Add(req, "client.query", "", t0, t2);
    a.spans->Add(req, "client.send", "client.query", t0, t1);
    a.spans->Add(req, "client.recv", "client.query", t1, t2);
  }
}

}  // namespace

void RunWireHot(const PhaseArgs& a, PhaseResult* out) {
  out->wire = true;
  std::vector<std::string> texts;
  for (const Pattern& p : a.in->hot) texts.push_back(PatternToText(p));

  std::vector<ConnResult> conns(kClients);
  RunWindow(a, out, [&](const Window& w, std::vector<std::thread>* threads) {
    for (size_t i = 0; i < kClients; ++i) {
      threads->emplace_back(ClientLoop, std::cref(a), std::cref(w),
                            std::cref(texts), i, &conns[i]);
    }
  });

  std::vector<EdgeUpdate> acked;
  uint64_t max_ts = 0;
  for (ConnResult& c : conns) {
    if (!c.failure.empty()) out->Fail(c.failure);
    out->query.Append(c.query);
    out->ack_us.insert(out->ack_us.end(), c.ack_us.begin(), c.ack_us.end());
    out->client_send_us.insert(out->client_send_us.end(), c.send_us.begin(),
                               c.send_us.end());
    acked.insert(acked.end(), c.acked.begin(), c.acked.end());
    max_ts = std::max(max_ts, c.max_acked_ts);
    Merge(&out->acct, c.acct);
  }
  out->updates_applied = out->acct["update"].succeeded;

  // Oracle: fixture graph + every acked insert (insert-only traffic, so
  // cross-connection order cannot change the final graph).
  Graph g = a.in->graph;
  for (const EdgeUpdate& op : acked) g.AddEdgeIfAbsent(op.u, op.v);
  std::shared_ptr<const GraphSnapshot> snap = g.Freeze();
  WireClient c;
  if (!c.Connect(a.stack->port())) {
    out->Fail("oracle connection failed");
    return;
  }
  for (size_t i = 0; i < texts.size() && out->correct; ++i) {
    net::QueryRequest q;
    q.min_applied_ts = max_ts;
    q.pattern_text = texts[i];
    net::Frame f;
    if (!c.Send(net::FrameKind::kQuery, i + 1, net::EncodeQueryRequest(q)) ||
        !c.Recv(&f) || f.kind != net::FrameKind::kQueryResult) {
      out->Fail("oracle query round trip failed");
      break;
    }
    Result<net::QueryResultFrame> served = net::DecodeQueryResult(f.payload);
    if (!served.ok() ||
        Digest(served->matched, served->edge_matches) !=
            OracleDigest(a.in->hot[i], *snap)) {
      out->Fail("wire_hot: hot query " + std::to_string(i) +
                " differs from the oracle after " +
                std::to_string(acked.size()) + " acked inserts");
    }
  }
}

}  // namespace perfbench
