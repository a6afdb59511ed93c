/// \file bench.h
/// \brief Shared pieces of the repository benchmark (see ../README.md):
/// the seeded fixture, the serving stack at its `gpmv_cli serve --port`
/// defaults, answer digests and the direct-simulation oracle, sample
/// percentiles with their sample counts, registry window deltas, and the
/// benchmark-side span log used by traced runs.
///
/// Everything here drives the library through its public API only.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/view.h"
#include "engine/query_engine.h"
#include "graph/graph.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pattern/pattern.h"
#include "stream/applier_pool.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ------------------------------------------------------------- fixture ---

/// Graph size of the shared fixture. At this size a warmed AmazonViews(2)
/// set is ~2 MB and one paper_views run checks every answer in well under
/// the run budget on 4 cores (README.md, "Sizes").
constexpr size_t kGraphNodes = 30000;
/// Hot query shapes (wire_hot traffic, the ingest_rw final-state oracle).
constexpr size_t kHotQueries = 16;
/// Client threads/connections: at most the 4 cores the benchmark targets.
constexpr size_t kClients = 4;

/// Everything a workload receives, generated from the seed alone.
struct Inputs {
  uint64_t seed = 0;
  gpmv::Graph graph;           ///< GenerateAmazonLike(kGraphNodes, seed)
  gpmv::ViewSet views;         ///< AmazonViews(2): the Fig. 8(i) views
  std::vector<gpmv::Pattern> hot;  ///< kHotQueries ContainedQuery shapes
};
Inputs MakeInputs(uint64_t seed);

/// A GenerateAmazonQuery shape drawn from `s` (3-5 nodes, bound 2), which
/// the views contain.
gpmv::Pattern ContainedQuery(uint64_t s);

/// A distinct query for (seed, stream, index): with probability 0.8 a
/// view-contained GenerateAmazonQuery (MatchJoin plan), otherwise a random
/// label pattern without predicates, which no view contains (direct plan).
/// `*contained` reports which.
gpmv::Pattern PaperQuery(uint64_t seed, uint64_t stream, uint64_t index,
                         bool* contained);

uint64_t Mix(uint64_t a, uint64_t b);

// --------------------------------------------------------------- stack ---

/// How the engine's tracing is wired for a run.
enum class TraceMode {
  kOff,       ///< untraced: the end-to-end configuration
  kResponse,  ///< ObsOptions::trace — trees arrive on QueryResponse::trace
  kSink,      ///< slow-query sink below every query (wire_hot)
};

/// Engine + ApplierPool + net::Server at the `gpmv_cli serve --port`
/// defaults, the server's event loop on its own thread. Constructing one is
/// the set-up the benchmark times: engine over `graph` (a copy of the
/// fixture made by the caller), view registration and warm-up, pool and
/// server start.
class Stack {
 public:
  Stack(gpmv::Graph graph, const gpmv::ViewSet& views, TraceMode mode,
        std::function<void(const std::string&)> sink);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  gpmv::QueryEngine& engine() { return *engine_; }
  gpmv::ApplierPool& pool() { return *pool_; }
  uint16_t port() const { return server_->port(); }
  const gpmv::ApplierPoolOptions& pool_options() const { return pool_opts_; }
  const gpmv::EngineOptions& engine_options() const { return engine_opts_; }
  bool ok() const { return status_.ok(); }
  const gpmv::Status& status() const { return status_; }

 private:
  gpmv::EngineOptions engine_opts_;
  gpmv::ApplierPoolOptions pool_opts_;
  std::unique_ptr<gpmv::QueryEngine> engine_;
  std::unique_ptr<gpmv::ApplierPool> pool_;
  std::unique_ptr<gpmv::net::Server> server_;
  std::thread loop_;
  gpmv::Status status_;
};

// ------------------------------------------------------------- answers ---

/// 64-bit digest of an answer's content: matched flag plus the normalized
/// match set of every pattern edge (plan, version and watermark excluded).
uint64_t Digest(bool matched,
                const std::vector<std::vector<gpmv::NodePair>>& edges);
uint64_t Digest(gpmv::MatchResult result);

/// The oracle: direct bounded simulation of `q` on `g`, digested.
uint64_t OracleDigest(const gpmv::Pattern& q, const gpmv::GraphSnapshot& g);

// ------------------------------------------------------------- samples ---

struct Pct {
  double value = 0.0;
  size_t n = 0;
  bool ok = false;  ///< at least 10 samples lie beyond the percentile
};
/// Nearest-rank percentile of `v` (q in (0,1)). Refused (ok = false) when
/// fewer than 10 samples lie beyond it: p50 needs 20 samples, p99 1000.
Pct Percentile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

/// Client-observed latencies with their completion times.
struct Latencies {
  std::vector<double> us;
  std::vector<Clock::time_point> end;
  void Add(Clock::time_point start, Clock::time_point stop) {
    us.push_back(UsBetween(start, stop));
    end.push_back(stop);
  }
  void Append(const Latencies& o) {
    us.insert(us.end(), o.us.begin(), o.us.end());
    end.insert(end.end(), o.end.begin(), o.end.end());
  }
  size_t size() const { return us.size(); }
};

/// Attempted / succeeded / failed per op type. Shed, pushed-back and
/// deadline outcomes count as failed.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
};
using Accounting = std::map<std::string, OpCount>;
void Merge(Accounting* into, const Accounting& from);

// ------------------------------------------------------------ registry ---

/// Registry snapshots at window start and end; every accessor is a delta
/// over the window except GaugeEnd.
class RegistryWindow {
 public:
  void Begin(const gpmv::obs::MetricsRegistry* r) { a_ = r->TakeSnapshot(); }
  void End(const gpmv::obs::MetricsRegistry* r) { b_ = r->TakeSnapshot(); }
  double Counter(const std::string& name) const;
  double Gauge(const std::string& name) const;
  double GaugeEnd(const std::string& name) const;
  gpmv::obs::HistogramSnapshot Hist(const std::string& name) const;

 private:
  gpmv::obs::MetricsSnapshot a_, b_;
};
/// Histogram percentile with the same 10-beyond refusal as Percentile.
Pct HistPercentile(const gpmv::obs::HistogramSnapshot& h, double q);

// -------------------------------------------------------------- traces ---

/// One engine span tree reduced to the layer boundaries it records.
struct EngineSpans {
  double total_us = 0;  ///< root "query" span (Execute, after queue wait)
  double wait_us = 0;   ///< queue.wait's wait_ms attribute
  double plan_us = 0;
  double result_cache_us = 0;
  double pin_us = 0;
  double fixpoint_us = 0;
  bool has_pin = false;
  bool has_fixpoint = false;
  std::string plan;  ///< root attribute: match_join / partial_views / direct
};
EngineSpans FromTree(const gpmv::obs::TraceSpan& root);
/// Parses one slow-query log line (obs::TraceToJsonLine). False if the
/// line does not hold a query tree.
bool FromJsonLine(const std::string& line, EngineSpans* out);

/// Benchmark-side spans of a traced run, kept in memory and written at exit.
/// Spans of one request share `request`; `parent` names the enclosing span
/// (empty for the request's root). Engine spans are attached under the
/// request span they were returned with.
struct SpanRecord {
  uint64_t request = 0;
  std::string name;
  std::string parent;
  double start_us = 0;  ///< offset from the run's time origin
  double dur_us = 0;
};
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  uint64_t NextRequest() { return next_.fetch_add(1); }
  void Add(uint64_t request, const char* name, const char* parent,
           Clock::time_point start, Clock::time_point end);
  /// Attaches an engine tree below `parent`, right-aligned to `end` (the
  /// engine's clock is not the benchmark's; only durations are exact).
  void AddEngineTree(uint64_t request, const char* parent,
                     const gpmv::obs::TraceSpan& root, Clock::time_point end);
  /// Writes the spans of the `max_requests` lowest-numbered requests that
  /// recorded any, as JSON lines.
  bool WriteJsonl(const std::string& path, size_t max_requests) const;
  size_t size() const;

 private:
  void AddSpanTree(uint64_t request, const std::string& parent,
                   const gpmv::obs::TraceSpan& s, double base_us);
  bool enabled_;
  Clock::time_point origin_;
  std::atomic<uint64_t> next_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Per-query self time by layer, summed over a traced window.
struct LayerSelfTime {
  double client = 0;
  double net = 0;
  double executor_queue = 0;
  double planner = 0;
  double result_cache = 0;
  double view_cache = 0;
  double match_join = 0;
  double direct_sim = 0;
  double engine_other = 0;
  double unattributed = 0;
  double end_to_end = 0;  ///< sum of client-observed latencies
  size_t queries = 0;
  /// Adds the engine-side layers of one tree.
  void AddEngine(const EngineSpans& e);
  /// Adds one in-process query of `us` client-observed microseconds and its
  /// engine tree (null when the engine returned none).
  void AddInProcess(double us, const EngineSpans* e);
  void Merge(const LayerSelfTime& o);
};

// ----------------------------------------------------------- workloads ---

/// What one phase (a stack plus a timed window) of a workload produced.
struct PhaseResult {
  double window_s = 0;
  Latencies query;  ///< client-observed, every query kind
  std::vector<double> asof_us;   ///< AS OF queries only (also in query)
  std::vector<double> ack_us;
  std::vector<double> visible_us;
  std::vector<double> push_us;
  std::vector<double> gen_late_us;
  std::vector<double> client_send_us;  ///< wire_hot: socket send calls
  uint64_t updates_applied = 0;        ///< acked and applied in the window
  double chain_depth_max = 0;
  Accounting acct;
  RegistryWindow reg;
  double rss_mb = 0;
  double cpu_s = 0;  ///< process user + system CPU over the window
  double steal_s = 0;  ///< host steal time over the window, all CPUs
  Clock::time_point window_start;
  std::vector<EngineSpans> engine;  ///< traced phases only
  LayerSelfTime layers;             ///< traced phases only
  bool wire = false;                ///< net layer carried the queries
  bool correct = true;
  std::string why;  ///< first oracle mismatch
  std::vector<std::pair<std::string, std::string>> sizes;  ///< recorded
  void Fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
};

struct PhaseArgs {
  const Inputs* in = nullptr;
  Stack* stack = nullptr;
  double seconds = 0;
  double warmup_s = 0;
  SpanLog* spans = nullptr;  ///< enabled only in traced phases
  /// Called with true when the timed window opens and false when it closes.
  std::function<void(bool)> on_window;
};

/// The schedule of one phase, shared with the threads that drive it.
struct Window {
  Clock::time_point start;         ///< traffic starts (warm-up begins)
  Clock::time_point measure_from;  ///< warm-up ends: samples count from here
  Clock::time_point end;           ///< the timed window closes
  std::atomic<bool> stop{false};   ///< set once the window has closed
};

/// Runs one phase's traffic: `spawn` starts the workload's threads, which
/// run until `stop`. The window opens after a.warmup_s (registry snapshot,
/// CPU and steal counters, on_window) and closes a.seconds later, when the
/// window length and peak RSS are recorded and `at_end` (may be empty) is
/// called. Then `stop` is set and every spawned thread joined.
void RunWindow(
    const PhaseArgs& a, PhaseResult* out,
    const std::function<void(const Window&, std::vector<std::thread>*)>& spawn,
    const std::function<void()>& at_end = {});

/// What one closed-loop in-process caller records (Submit then get).
struct CallerStats {
  Latencies query;
  std::vector<EngineSpans> engine;  ///< traced phases only
  LayerSelfTime layers;             ///< traced phases only
  Accounting acct;
  void MergeInto(PhaseResult* out) const;
};

/// One Submit then get, timed from before Submit to after get.
struct Submitted {
  bool ok = false;        ///< answered: not shed, no error status
  bool measured = false;  ///< issued inside the window
  double us = 0;          ///< client-observed latency (when ok)
  gpmv::QueryResponse resp;
};
/// Issues `q` and, when issued inside the window, counts it under `op`; a
/// measured answer also records its latency, the benchmark span `span` with
/// the engine's tree below it, and the layers' self times into `s`.
Submitted TimedSubmit(const PhaseArgs& a, const Window& w, gpmv::Pattern q,
                      const gpmv::QueryOptions& qo, const char* op,
                      const char* span, CallerStats* s);

/// A workload: its trace mode, the CPUs it runs on and its phase body.
struct Workload {
  const char* name;
  TraceMode traced_mode;
  /// The process, and every thread it starts, is confined to this many
  /// CPUs (0: all of them). The engine still sizes its pools from the
  /// machine's CPU count, so the stack keeps its defaults.
  size_t cpus;
  void (*run)(const PhaseArgs& args, PhaseResult* out);
};
void RunWireHot(const PhaseArgs& args, PhaseResult* out);
void RunPaperViews(const PhaseArgs& args, PhaseResult* out);
void RunIngestRw(const PhaseArgs& args, PhaseResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
