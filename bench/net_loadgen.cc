/// \file net_loadgen.cc
/// \brief Socket load generator for `gpmv_cli serve --port`: N concurrent
/// client connections driving mixed query/update/stats traffic through the
/// length-prefixed binary protocol (net/protocol.h), with a sustained-qps +
/// latency report and an optional end-to-end result-equivalence check.
///
///   ./build/bench/net_loadgen --port N [--host 127.0.0.1]
///       --graph <file> [--queries <file>] [--conns 32] [--requests 64]
///       [--update-ratio 25] [--stats-every 16] [--check] [--shutdown]
///       [--stats-out <path> [--stats-lines 3]] [--seed 42] [--json <path>]
///       [--max-query-p50-us N]
///
/// Each of `--conns` connections runs its own thread with one outstanding
/// request at a time (`--requests` per connection): `--update-ratio`% are
/// edge-insert updates, every `--stats-every`-th request is a stats frame,
/// the rest are queries drawn round-robin from the query file (or generated
/// patterns when no file is given). Insert-only updates keep the final
/// graph a set union of whatever the server acked, so op arrival order
/// across connections cannot change the answer — that is what makes the
/// `--check` oracle exact.
///
/// Per-connection read-your-writes is asserted inline: every query response
/// must carry `applied_through_ts >=` the highest update ts this connection
/// was acked.
///
/// `--check`: after the traffic phase, a fresh connection re-issues every
/// distinct query with `min_applied_ts` = the global max acked ts (forcing
/// the server to wait out all acked ingestion), while an in-process oracle
/// engine loads the same graph, applies the same acked inserts as one
/// batch, and runs the same patterns. The normalized match sets must be
/// bit-identical (same canonical bytes) — exit 1 otherwise.
///
/// `--stats-out` captures `--stats-lines` kStatsResult snapshot lines from
/// a dedicated post-traffic connection into a JSON-lines file for
/// tools/check_metrics_schema.py. The checker wants seq dense from 1, and
/// seq is server-global — combine with `--stats-every 0` so no worker
/// connection consumes seq numbers first.
///
/// `--max-query-p50-us N` is a latency gate: the run exits 1 when the
/// client-observed query p50 exceeds N µs (0, the default, disables it).
///
/// `--shutdown` ends the run with a kShutdown frame and waits for the
/// server to close the connection, so a CI job can assert the serve
/// process exits cleanly with code 0.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/parse_num.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/view_io.h"
#include "engine/query_engine.h"
#include "graph/graph_io.h"
#include "net/protocol.h"
#include "pattern/pattern_io.h"
#include "workload/pattern_gen.h"

using namespace gpmv;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: net_loadgen --port N [--host H] --graph <file>\n"
               "  [--queries <file>] [--conns 32] [--requests 64]\n"
               "  [--update-ratio 25] [--stats-every 16] [--check]\n"
               "  [--shutdown] [--stats-out <path> [--stats-lines 3]]\n"
               "  [--seed 42] [--json <path>] [--max-query-p50-us N]\n");
  return 2;
}

std::string FlagValue(const std::vector<std::string>& args, const char* flag,
                      const std::string& def = "") {
  for (size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return def;
}

bool HasFlag(const std::vector<std::string>& args, const char* flag) {
  for (const std::string& a : args) {
    if (a == flag) return true;
  }
  return false;
}

bool NumericFlag(const std::vector<std::string>& args, const char* flag,
                 uint64_t def, uint64_t* out) {
  const std::string v = FlagValue(args, flag);
  if (v.empty()) {
    *out = def;
    return true;
  }
  if (!ParseUnsigned(v, out)) {
    std::fprintf(stderr, "error: %s expects a non-negative number, got '%s'\n",
                 flag, v.c_str());
    return false;
  }
  return true;
}

/// One blocking protocol client: request/response framing over a TCP
/// socket, one outstanding request at a time.
class Client {
 public:
  ~Client() { Close(); }

  bool Connect(const std::string& host, uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      Close();
      return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  bool Send(net::FrameKind kind, uint64_t request_id,
            const std::string& payload) {
    std::string wire;
    net::EncodeFrame(kind, Status::Code::kOk, request_id, payload, &wire);
    size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off, 0);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocks until one complete response frame arrives; false on disconnect
  /// or framing error.
  bool Recv(net::Frame* out) {
    for (;;) {
      if (parser_.Next(out)) return true;
      if (!parser_.ok()) return false;
      uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      parser_.Feed(buf, static_cast<size_t>(n));
    }
  }

  /// True once the peer has closed (recv returns 0 with no frame pending).
  bool WaitPeerClose() {
    net::Frame f;
    return !Recv(&f);
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  net::FrameParser parser_{/*require_requests=*/false};
};

/// The answer content of a query result — matched flag + normalized match
/// sets, excluding plan/version/watermark fields that legitimately differ
/// between the server and the oracle. Two answers are equal iff these
/// bytes are equal.
std::string CanonicalAnswer(bool matched,
                            const std::vector<std::vector<NodePair>>& edges) {
  std::string out;
  out.push_back(matched ? 1 : 0);
  for (const std::vector<NodePair>& pairs : edges) {
    const uint32_t n = static_cast<uint32_t>(pairs.size());
    out.append(reinterpret_cast<const char*>(&n), sizeof(n));
    for (const NodePair& p : pairs) {
      out.append(reinterpret_cast<const char*>(&p.first), sizeof(p.first));
      out.append(reinterpret_cast<const char*>(&p.second), sizeof(p.second));
    }
  }
  return out;
}

struct WorkerResult {
  std::vector<double> query_us;  ///< per-query round-trip latencies
  std::vector<EdgeUpdate> acked_ops;
  uint64_t max_acked_ts = 0;
  size_t requests = 0;
  size_t updates_acked = 0;
  size_t pushbacks = 0;  ///< kDeadlineExceeded / kResourceExhausted errors
  size_t failures = 0;   ///< protocol violations, RYW violations, disconnects
  std::string first_failure;
};

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const size_t idx = static_cast<size_t>(q * static_cast<double>(v->size()));
  return (*v)[std::min(idx, v->size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  uint64_t port = 0, conns = 32, requests = 64, update_ratio = 25,
           stats_every = 16, stats_lines = 3, seed = 42, max_p50_us = 0;
  if (!NumericFlag(args, "--port", 0, &port) ||
      !NumericFlag(args, "--conns", 32, &conns) ||
      !NumericFlag(args, "--requests", 64, &requests) ||
      !NumericFlag(args, "--update-ratio", 25, &update_ratio) ||
      !NumericFlag(args, "--stats-every", 16, &stats_every) ||
      !NumericFlag(args, "--stats-lines", 3, &stats_lines) ||
      !NumericFlag(args, "--seed", 42, &seed) ||
      !NumericFlag(args, "--max-query-p50-us", 0, &max_p50_us)) {
    return Usage();
  }
  const std::string host = FlagValue(args, "--host", "127.0.0.1");
  const std::string graph_path = FlagValue(args, "--graph");
  const std::string queries_path = FlagValue(args, "--queries");
  const std::string json_path = FlagValue(args, "--json");
  const bool check = HasFlag(args, "--check");
  const bool shutdown = HasFlag(args, "--shutdown");
  if (port == 0 || port > 65535 || graph_path.empty() || update_ratio > 100) {
    return Usage();
  }

  Result<Graph> gr = ReadGraphFile(graph_path);
  if (!gr.ok()) {
    std::fprintf(stderr, "error loading graph: %s\n",
                 gr.status().ToString().c_str());
    return 1;
  }
  Graph graph = std::move(gr).value();
  if (graph.num_nodes() < 2) {
    std::fprintf(stderr, "error: need at least 2 nodes for update traffic\n");
    return 1;
  }

  // The query mix: pattern texts sent verbatim on the wire. From the query
  // file when given, otherwise a handful of generated patterns.
  std::vector<std::string> patterns;
  if (!queries_path.empty()) {
    Result<ViewSet> qs = ReadViewSetFile(queries_path);
    if (!qs.ok()) {
      std::fprintf(stderr, "error loading queries: %s\n",
                   qs.status().ToString().c_str());
      return 1;
    }
    for (const ViewDefinition& def : qs->views()) {
      patterns.push_back(PatternToText(def.pattern));
    }
  } else {
    for (uint32_t i = 0; i < 6; ++i) {
      RandomPatternOptions po;
      po.num_nodes = 3 + i % 3;
      po.num_edges = po.num_nodes + i % 2;
      po.max_bound = 2;
      po.seed = seed + i;
      patterns.push_back(PatternToText(GenerateRandomPattern(po)));
    }
  }
  if (patterns.empty()) {
    std::fprintf(stderr, "error: no query patterns\n");
    return 1;
  }

  const size_t num_nodes = graph.num_nodes();
  std::vector<WorkerResult> results(conns);
  Stopwatch wall;
  std::vector<std::thread> workers;
  workers.reserve(conns);
  for (size_t w = 0; w < conns; ++w) {
    workers.emplace_back([&, w] {
      WorkerResult& r = results[w];
      auto fail = [&r](const std::string& why) {
        ++r.failures;
        if (r.first_failure.empty()) r.first_failure = why;
      };
      Client c;
      if (!c.Connect(host, static_cast<uint16_t>(port))) {
        fail("connect failed");
        return;
      }
      Rng rng(seed * 1315423911u + w + 1);
      uint64_t next_id = 1;
      for (size_t i = 0; i < requests; ++i) {
        const uint64_t id = next_id++;
        ++r.requests;
        if (stats_every > 0 && i % stats_every == stats_every - 1) {
          net::Frame f;
          if (!c.Send(net::FrameKind::kStats, id, "") || !c.Recv(&f)) {
            fail("stats round-trip failed");
            return;
          }
          if (f.kind != net::FrameKind::kStatsResult || f.request_id != id ||
              f.payload.empty()) {
            fail("bad stats response");
            return;
          }
          continue;
        }
        if (rng.NextBounded(100) < update_ratio) {
          // Insert-only (see file comment: keeps the oracle order-free).
          NodeId u = static_cast<NodeId>(rng.NextBounded(num_nodes));
          NodeId v = static_cast<NodeId>(rng.NextBounded(num_nodes));
          if (u == v) v = static_cast<NodeId>((v + 1) % num_nodes);
          const EdgeUpdate op = EdgeUpdate::Insert(u, v);
          net::Frame f;
          if (!c.Send(net::FrameKind::kUpdate, id,
                      net::EncodeUpdateRequest(op)) ||
              !c.Recv(&f)) {
            fail("update round-trip failed");
            return;
          }
          if (f.request_id != id) {
            fail("update response id mismatch");
            return;
          }
          if (f.kind == net::FrameKind::kUpdateAck) {
            Result<uint64_t> ts = net::DecodeUpdateAck(f.payload);
            if (!ts.ok() || *ts == 0) {
              fail("bad update ack payload");
              return;
            }
            r.acked_ops.push_back(op);
            r.max_acked_ts = std::max(r.max_acked_ts, *ts);
            ++r.updates_acked;
          } else if (f.kind == net::FrameKind::kError &&
                     (f.status == Status::Code::kDeadlineExceeded ||
                      f.status == Status::Code::kResourceExhausted)) {
            // Backpressure pushed back on this client — a legitimate
            // outcome under load, not a failure.
            ++r.pushbacks;
          } else {
            fail("unexpected update response kind/status");
            return;
          }
          continue;
        }
        net::QueryRequest q;
        q.pattern_text = patterns[rng.NextBounded(patterns.size())];
        Stopwatch sw;
        net::Frame f;
        if (!c.Send(net::FrameKind::kQuery, id, net::EncodeQueryRequest(q)) ||
            !c.Recv(&f)) {
          fail("query round-trip failed");
          return;
        }
        if (f.request_id != id) {
          fail("query response id mismatch");
          return;
        }
        if (f.kind == net::FrameKind::kError &&
            f.status == Status::Code::kResourceExhausted) {
          ++r.pushbacks;  // executor shed the query under load
          continue;
        }
        if (f.kind != net::FrameKind::kQueryResult) {
          fail("unexpected query response kind=" +
               std::to_string(static_cast<int>(f.kind)) + " status=" +
               std::to_string(static_cast<int>(f.status)) + " msg=" +
               std::string(f.payload.begin(), f.payload.end()));
          return;
        }
        Result<net::QueryResultFrame> qr = net::DecodeQueryResult(f.payload);
        if (!qr.ok()) {
          fail("undecodable query result");
          return;
        }
        // Read-your-writes: the result must reflect every update this
        // connection has been acked.
        if (qr->applied_through_ts < r.max_acked_ts) {
          fail("read-your-writes violation: applied_through " +
               std::to_string(qr->applied_through_ts) + " < acked ts " +
               std::to_string(r.max_acked_ts));
          return;
        }
        r.query_us.push_back(sw.ElapsedMillis() * 1000.0);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const double secs = wall.ElapsedSeconds();

  std::vector<double> all_query_us;
  std::vector<EdgeUpdate> acked;
  uint64_t global_max_ts = 0;
  size_t total_requests = 0, updates_acked = 0, pushbacks = 0, failures = 0;
  std::string first_failure;
  for (const WorkerResult& r : results) {
    all_query_us.insert(all_query_us.end(), r.query_us.begin(),
                        r.query_us.end());
    acked.insert(acked.end(), r.acked_ops.begin(), r.acked_ops.end());
    global_max_ts = std::max(global_max_ts, r.max_acked_ts);
    total_requests += r.requests;
    updates_acked += r.updates_acked;
    pushbacks += r.pushbacks;
    failures += r.failures;
    if (first_failure.empty()) first_failure = r.first_failure;
  }
  const double qps =
      secs > 0 ? static_cast<double>(total_requests) / secs : 0.0;
  const double p50 = Quantile(&all_query_us, 0.50);
  const double p99 = Quantile(&all_query_us, 0.99);
  std::printf(
      "net_loadgen: conns=%llu requests=%zu (%.0f req/s) queries=%zu "
      "p50=%.0fus p99=%.0fus updates_acked=%zu pushbacks=%zu failures=%zu\n",
      static_cast<unsigned long long>(conns), total_requests, qps,
      all_query_us.size(), p50, p99, updates_acked, pushbacks, failures);
  if (failures > 0) {
    std::fprintf(stderr, "FAIL: %s\n", first_failure.c_str());
  }
  const bool latency_ok =
      max_p50_us == 0 || p50 <= static_cast<double>(max_p50_us);
  if (!latency_ok) {
    std::fprintf(stderr,
                 "FAIL: query p50 %.0fus exceeds --max-query-p50-us %llu\n",
                 p50, static_cast<unsigned long long>(max_p50_us));
  }

  // --check: the server's post-ingest answers vs an in-process oracle over
  // the same graph + the same acked inserts. min_applied_ts = global max
  // acked ts forces the server-side read to wait out all acked ingestion.
  bool check_ok = true;
  if (check && failures == 0) {
    Client c;
    if (!c.Connect(host, static_cast<uint16_t>(port))) {
      std::fprintf(stderr, "FAIL: check connection failed\n");
      check_ok = false;
    } else {
      QueryEngine oracle(std::move(graph), EngineOptions{});
      Status ast = oracle.ApplyUpdates(acked);
      if (!ast.ok()) {
        std::fprintf(stderr, "FAIL: oracle apply: %s\n",
                     ast.ToString().c_str());
        check_ok = false;
      }
      uint64_t id = 1;
      for (const std::string& text : patterns) {
        if (!check_ok) break;
        net::QueryRequest q;
        q.min_applied_ts = global_max_ts;
        q.pattern_text = text;
        net::Frame f;
        if (!c.Send(net::FrameKind::kQuery, id, net::EncodeQueryRequest(q)) ||
            !c.Recv(&f) || f.kind != net::FrameKind::kQueryResult) {
          std::fprintf(stderr, "FAIL: check query %llu round trip\n",
                       static_cast<unsigned long long>(id));
          check_ok = false;
          break;
        }
        Result<net::QueryResultFrame> served =
            net::DecodeQueryResult(f.payload);
        Result<Pattern> pat = PatternFromText(text);
        if (!served.ok() || !pat.ok()) {
          std::fprintf(stderr, "FAIL: check decode\n");
          check_ok = false;
          break;
        }
        Result<std::future<QueryResponse>> fut =
            oracle.Submit(std::move(*pat), QueryOptions{});
        if (!fut.ok()) {
          std::fprintf(stderr, "FAIL: oracle submit\n");
          check_ok = false;
          break;
        }
        QueryResponse resp = fut->get();
        if (!resp.status.ok()) {
          std::fprintf(stderr, "FAIL: oracle query: %s\n",
                       resp.status.ToString().c_str());
          check_ok = false;
          break;
        }
        resp.result.Normalize();
        std::vector<std::vector<NodePair>> oracle_edges;
        for (uint32_t e = 0; e < resp.result.num_pattern_edges(); ++e) {
          oracle_edges.push_back(resp.result.edge_matches(e));
        }
        const std::string want =
            CanonicalAnswer(resp.result.matched(), oracle_edges);
        const std::string got =
            CanonicalAnswer(served->matched, served->edge_matches);
        if (want != got) {
          std::fprintf(stderr,
                       "FAIL: answer mismatch on query %llu (served %zu "
                       "bytes, oracle %zu bytes)\n",
                       static_cast<unsigned long long>(id), got.size(),
                       want.size());
          check_ok = false;
          break;
        }
        ++id;
      }
      if (check_ok) {
        std::printf("check: %zu queries IDENTICAL to oracle "
                    "(%zu acked inserts, min_applied_ts=%llu)\n",
                    patterns.size(), acked.size(),
                    static_cast<unsigned long long>(global_max_ts));
      }
    }
  }

  // --stats-out: capture kStatsResult lines into a JSON-lines file for
  // tools/check_metrics_schema.py. The stats seq is server-global, and the
  // checker requires it dense from 1 — pair this with --stats-every 0 so
  // this capture connection is the run's only stats requester.
  bool stats_ok = true;
  const std::string stats_out = FlagValue(args, "--stats-out");
  if (!stats_out.empty()) {
    std::ofstream out(stats_out);
    Client c;
    if (!out.is_open() || !c.Connect(host, static_cast<uint16_t>(port))) {
      std::fprintf(stderr, "FAIL: stats capture setup\n");
      stats_ok = false;
    } else {
      for (uint64_t id = 1; id <= stats_lines && stats_ok; ++id) {
        net::Frame f;
        if (!c.Send(net::FrameKind::kStats, id, "") || !c.Recv(&f) ||
            f.kind != net::FrameKind::kStatsResult) {
          std::fprintf(stderr, "FAIL: stats capture round trip\n");
          stats_ok = false;
          break;
        }
        out << std::string(f.payload.begin(), f.payload.end()) << '\n';
      }
      if (stats_ok && !out.good()) {
        std::fprintf(stderr, "FAIL: stats capture write\n");
        stats_ok = false;
      }
      if (stats_ok) {
        std::printf("stats: %llu snapshot lines -> %s\n",
                    static_cast<unsigned long long>(stats_lines),
                    stats_out.c_str());
      }
    }
  }

  bool shutdown_ok = true;
  if (shutdown) {
    Client c;
    net::Frame f;
    shutdown_ok = c.Connect(host, static_cast<uint16_t>(port)) &&
                  c.Send(net::FrameKind::kShutdown, 1, "") && c.Recv(&f) &&
                  f.kind == net::FrameKind::kOk && c.WaitPeerClose();
    std::printf("shutdown: %s\n", shutdown_ok ? "acked and closed" : "FAILED");
  }

  if (!json_path.empty()) {
    bench::JsonReport report("net_loadgen");
    report.Meta("conns", static_cast<double>(conns));
    report.Meta("check", check ? (check_ok ? "identical" : "mismatch")
                               : "skipped");
    report.Add("traffic",
               {{"requests", static_cast<double>(total_requests)},
                {"qps", qps},
                {"query_p50_us", p50},
                {"query_p99_us", p99},
                {"updates_acked", static_cast<double>(updates_acked)},
                {"pushbacks", static_cast<double>(pushbacks)},
                {"failures", static_cast<double>(failures)}});
    if (!report.WriteTo(json_path)) return 1;
  }

  return (failures == 0 && latency_ok && check_ok && stats_ok &&
          shutdown_ok)
             ? 0
             : 1;
}
