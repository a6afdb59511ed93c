/// \file main.cc
/// \brief The repository benchmark's `perfbench` binary.
///
///   perfbench --workload <wire_hot|paper_views|ingest_rw> --seed N
///             --seconds S --trace <0|1> [--trace-out <file.jsonl>]
///
/// --trace 0: sets the stack up kSetupWarmups times untimed, then times
/// kSetups set-ups, half before and half after one untraced window of S
/// seconds (set-up time is their median), and prints the end-to-end
/// metrics. --trace 1: runs
/// an untraced window of S * kUntracedShare seconds and then a traced one
/// for the rest of S, on fresh stacks, and prints the per-layer metrics of
/// the traced one plus the tracing overhead between the two.
/// Every window is followed by its workload's oracle. Human-readable
/// lines come first; the last line is one JSON object with the keys
/// correct, attempted, failed and metrics. Exit code 1 on an oracle
/// mismatch (after the JSON line), 2 on bad arguments or a refused
/// percentile (without it).

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "bench.h"
#include "common/parse_num.h"

namespace perfbench {
namespace {

using namespace gpmv;

/// Set-up takes ~15 ms, memory-bound, on a host whose speed drifts by
/// ±20% over seconds: the first set-ups of a process run cold, and the
/// median of many, taken on both sides of the window, evens out the rest.
constexpr int kSetupWarmups = 3;
constexpr int kSetups = 81;
/// Share of a traced run's seconds spent in its untraced phase, which only
/// serves obs.trace_overhead_frac; the traced phase gets the rest, so that
/// wire_hot's ~5% inserts give p99s of per-batch maintenance histograms.
constexpr double kUntracedShare = 0.25;
constexpr double kWarmupS = 0.5;
/// query_tput_qps is the median, over the window's slices of this length,
/// of the queries completed per second: a host stall (hypervisor steal
/// preempting the server's event loop or the clients) slows the slices it
/// falls in but not the median, unless it covers half the window.
constexpr double kTputSliceS = 0.1;
constexpr size_t kTraceFileRequests = 2000;

/// wire_hot runs on one CPU. It is latency-bound (under one core busy), and
/// spread over four vCPUs every request crosses several cross-CPU wake-ups,
/// each as slow as the hypervisor is to run an idle vCPU: its throughput
/// then followed host steal (-40% at 0.8 cores). On one CPU the hand-offs
/// are context switches in the guest (README.md, "Steadiness").
const Workload kWorkloads[] = {
    {"wire_hot", TraceMode::kSink, 1, &RunWireHot},
    {"paper_views", TraceMode::kResponse, 0, &RunPaperViews},
    {"ingest_rw", TraceMode::kResponse, 0, &RunIngestRw},
};

/// Confines the calling thread, and so every thread it starts afterwards,
/// to the lowest `n` CPUs it may run on.
bool PinToCpus(size_t n) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  cpu_set_t want;
  CPU_ZERO(&want);
  size_t taken = 0;
  for (int c = 0; c < CPU_SETSIZE && taken < n; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, &want);
    ++taken;
  }
  return taken == n && sched_setaffinity(0, sizeof(want), &want) == 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Collects metrics and echoes each as a human-readable line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit});
    std::printf("  %-44s %14.4f %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  /// A percentile: refused (reported as 0, "refused") when fewer than 10
  /// samples lie beyond it.
  void AddPct(const std::string& name, const Pct& p) {
    char note[64];
    std::snprintf(note, sizeof(note), "%s(n=%zu)", p.ok ? "" : "refused ",
                  p.n);
    Add(name, p.ok ? p.value : 0.0, "us", note);
  }
  /// A ratio; 0 with "idle" when the base is 0 (the layer did no work).
  void AddRatio(const std::string& name, double num, double den,
                const std::string& unit = "ratio") {
    char note[64];
    std::snprintf(note, sizeof(note), "(%.0f / %.0f)", num, den);
    Add(name, den > 0 ? num / den : 0.0, unit, den > 0 ? note : "idle");
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    uint64_t n = 0;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed" && ParseUnsigned(v, &n)) {
      a->seed = n;
    } else if (k == "--seconds" && ParseUnsigned(v, &n) && n > 0 && n <= 600) {
      a->seconds = static_cast<double>(n);
    } else if (k == "--trace" && (v == "0" || v == "1")) {
      a->trace = v == "1" ? 1 : 0;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         a->trace >= 0;
}

void PrintAccounting(const char* phase, const Accounting& acct) {
  for (const auto& [op, c] : acct) {
    std::printf("  ops[%s] %-12s attempted=%llu succeeded=%llu failed=%llu\n",
                phase, op.c_str(), static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.succeeded),
                static_cast<unsigned long long>(c.failed));
  }
}

void PrintSizes(const Inputs& in, Stack& stack, const PhaseResult& r) {
  const EngineStats s = stack.engine().stats();
  std::printf("  size.seed                 %llu\n",
              static_cast<unsigned long long>(in.seed));
  std::printf("  size.graph                %zu nodes / %zu edges\n",
              in.graph.num_nodes(), in.graph.num_edges());
  std::printf("  size.views                %zu warmed, %zu bytes of a %zu-byte "
              "view-cache budget\n",
              in.views.card(), s.cache.bytes_cached,
              stack.engine_options().cache.budget_bytes);
  std::printf("  size.result_cache         %.0f bytes in %.0f entries of a "
              "%zu-byte budget; hot set %zu distinct queries\n",
              r.reg.GaugeEnd("result_cache.bytes_cached"),
              r.reg.GaugeEnd("result_cache.entries"),
              stack.engine_options().result_cache.budget_bytes, in.hot.size());
  for (const auto& [k, v] : r.sizes) {
    std::printf("  size.%-20s %s\n", k.c_str(), v.c_str());
  }
}

/// Runs one phase on a fresh stack already built by the caller.
PhaseResult RunPhase(const Workload& w, const Inputs& in, Stack* stack,
                     double seconds, SpanLog* spans,
                     std::function<void(bool)> on_window, const char* label) {
  PhaseArgs a;
  a.in = &in;
  a.stack = stack;
  a.seconds = seconds;
  a.warmup_s = kWarmupS;
  a.spans = spans;
  a.on_window = std::move(on_window);
  PhaseResult r;
  w.run(a, &r);
  std::printf("-- %s phase: %.2f s window, %zu queries, oracle %s%s%s\n", label,
              r.window_s, r.query.size(), r.correct ? "ok" : "MISMATCH",
              r.correct ? "" : ": ", r.why.c_str());
  std::printf("  cpu: %.2f cores busy over the window; host steal %.2f "
              "cores\n",
              r.cpu_s / std::max(1e-9, r.window_s),
              r.steal_s / std::max(1e-9, r.window_s));
  if (r.query.size() > 0) {
    std::vector<int> per_s(static_cast<size_t>(r.window_s) + 1, 0);
    for (Clock::time_point e : r.query.end) {
      const double t = UsBetween(r.window_start, e) / 1e6;
      if (t >= 0 && t < per_s.size()) ++per_s[static_cast<size_t>(t)];
    }
    std::printf("  queries per second of the window:");
    for (int n : per_s) std::printf(" %d", n);
    std::printf("\n");
  }
  PrintAccounting(label, r.acct);
  PrintSizes(in, *stack, r);
  return r;
}

/// Builds a stack, storing the set-up time through `setup_s` when non-null.
/// Reports a failed set-up and returns null.
std::unique_ptr<Stack> BuildStack(const Inputs& in, TraceMode mode,
                                  std::function<void(const std::string&)> sink,
                                  double* setup_s) {
  Graph graph = in.graph;  // copying the generated input is not set-up
  const Clock::time_point t0 = Clock::now();
  auto stack = std::make_unique<Stack>(std::move(graph), in.views, mode,
                                       std::move(sink));
  if (setup_s != nullptr) *setup_s = UsBetween(t0, Clock::now()) / 1e6;
  if (!stack->ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 stack->status().ToString().c_str());
    return nullptr;
  }
  return stack;
}

void EndToEnd(const PhaseResult& r, const std::vector<double>& setup_s,
              Report* rep, bool* refused) {
  std::vector<double> s = setup_s;
  std::sort(s.begin(), s.end());
  char note[96];
  std::snprintf(note, sizeof(note), "(median of %zu set-ups; min %.4f, max %.4f)",
                s.size(), s.front(), s.back());
  rep->Add("setup_s", s[s.size() / 2], "s", note);
  const Pct p50 = Percentile(r.query.us, 0.50);
  rep->AddPct("query_p50_us", p50);
  std::vector<double> slices(
      static_cast<size_t>(r.window_s / kTputSliceS), 0.0);
  size_t in_window = 0;
  for (Clock::time_point e : r.query.end) {
    const double t = UsBetween(r.window_start, e) / 1e6;
    if (t < 0 || t > r.window_s) continue;
    ++in_window;
    const size_t i = static_cast<size_t>(t / kTputSliceS);
    if (i < slices.size()) slices[i] += 1.0 / kTputSliceS;
  }
  const double mean_qps = static_cast<double>(in_window) / r.window_s;
  std::snprintf(note, sizeof(note),
                "(median of %zu slices of %.0f ms; mean %.1f)", slices.size(),
                kTputSliceS * 1e3, mean_qps);
  const Pct tput = Percentile(slices, 0.50);
  rep->Add("query_tput_qps", tput.value, "1/s", note);
  rep->Add("peak_rss_mb", r.rss_mb, "MB", "(VmHWM at window end)");
  // The tail is printed but not gated: on wire_hot it tracks host steal
  // (README.md, "Steadiness").
  for (const auto& [name, q] : {std::make_pair("query_p90_us", 0.90),
                                std::make_pair("query_p99_us", 0.99)}) {
    const Pct p = Percentile(r.query.us, q);
    std::printf("  %-44s %14.4f %-6s %s(n=%zu, not gated)\n", name,
                p.ok ? p.value : 0.0, "us", p.ok ? "" : "refused ", p.n);
  }
  *refused = !p50.ok || !tput.ok;
}

/// Mean self time per query by layer. In process the spans of each request
/// are exact; on the wire (no trace id yet) the means of the three sides
/// are reconciled: client round trip, server `net.request_us`, engine trees.
LayerSelfTime SelfTimeMeans(const PhaseResult& r,
                            const obs::HistogramSnapshot& requests) {
  LayerSelfTime m = r.layers;
  double n = static_cast<double>(std::max<size_t>(1, m.queries));
  if (r.wire) {
    m = LayerSelfTime();
    for (const EngineSpans& e : r.engine) m.AddEngine(e);
    n = static_cast<double>(std::max<size_t>(1, r.engine.size()));
  }
  for (double* v : {&m.client, &m.net, &m.executor_queue, &m.planner,
                    &m.result_cache, &m.view_cache, &m.match_join,
                    &m.direct_sim, &m.engine_other, &m.unattributed,
                    &m.end_to_end}) {
    *v /= n;
  }
  if (r.wire) {
    const double engine = m.executor_queue + m.planner + m.result_cache +
                          m.view_cache + m.match_join + m.direct_sim +
                          m.engine_other;
    const double server =
        requests.count > 0
            ? static_cast<double>(requests.sum) / requests.count
            : 0.0;
    m.client = Mean(r.client_send_us);
    m.net = server - engine;
    m.end_to_end = Mean(r.query.us);
    m.unattributed = m.end_to_end - m.client - server;
  }
  return m;
}

void PerLayer(const PhaseResult& r, const PhaseResult& untraced, Report* rep) {
  const RegistryWindow& g = r.reg;
  const double queries = g.Counter("engine.queries");
  const double updates = static_cast<double>(r.ack_us.size());
  const double window = r.window_s;

  // End-to-end in nature, but not gateable on every workload (README.md).
  rep->AddPct("query_p90_us", Percentile(r.query.us, 0.90));
  rep->AddPct("query_p99_us", Percentile(r.query.us, 0.99));
  rep->AddPct("update_ack_p50_us", Percentile(r.ack_us, 0.50));
  rep->AddPct("update_ack_p99_us", Percentile(r.ack_us, 0.99));
  rep->AddPct("update_visible_p50_us", Percentile(r.visible_us, 0.50));
  rep->AddPct("update_visible_p99_us", Percentile(r.visible_us, 0.99));
  rep->Add("update_tput_ops", static_cast<double>(r.updates_applied) / window,
           "1/s");
  uint64_t attempted = 0, failed = 0;
  for (const auto& [op, c] : r.acct) {
    attempted += c.attempted;
    failed += c.failed;
  }
  rep->AddRatio("failed_frac", static_cast<double>(failed),
                static_cast<double>(attempted));

  // net
  const obs::HistogramSnapshot req = g.Hist("net.request_us");
  const Pct server_p50 = HistPercentile(req, 0.50);
  rep->AddPct("net.request_p50_us", server_p50);
  const Pct client_p50 = Percentile(r.query.us, 0.50);
  if (r.wire && server_p50.ok && client_p50.ok) {
    rep->Add("net.dwell_p50_us", client_p50.value - server_p50.value, "us",
             "(client p50 - server p50)");
  } else {
    rep->Add("net.dwell_p50_us", 0.0, "us", "idle");
  }
  rep->AddRatio("net.flushes_per_frame", g.Counter("net.flushes"),
                g.Counter("net.frames_sent"));
  rep->AddRatio("net.bytes_per_flush", g.Counter("net.bytes_written"),
                g.Counter("net.flushes"), "bytes");
  rep->AddRatio("net.parks_per_update", g.Counter("net.backpressure_parks"),
                g.Counter("net.updates"));

  // engine.executor / planner / caches
  rep->AddPct("engine.executor.queue_wait_p99_us",
              HistPercentile(g.Hist("exec.queue_wait_us"), 0.99));
  rep->AddPct("engine.executor.run_p50_us",
              HistPercentile(g.Hist("exec.run_us"), 0.50));
  rep->AddRatio("engine.executor.shed_frac", g.Counter("engine.shed_queries"),
                queries + g.Counter("engine.shed_queries"));
  rep->AddPct("engine.planner.plan_p50_us",
              HistPercentile(g.Hist("query.plan_us"), 0.50));
  rep->AddRatio("engine.planner.direct_frac", g.Counter("engine.plans.direct"),
                queries);
  const double rc_hits = g.Gauge("result_cache.hits");
  rep->AddRatio("engine.result_cache.hit_rate", rc_hits,
                rc_hits + g.Gauge("result_cache.misses"));
  rep->AddRatio("engine.result_cache.stale_drops_per_update",
                g.Gauge("result_cache.stale_drops"), updates);
  const double vc_hits = g.Gauge("cache.hits");
  rep->AddRatio("engine.view_cache.hit_rate", vc_hits,
                vc_hits + g.Gauge("cache.misses"));
  std::vector<double> pin, mj_fix, direct_fix;
  for (const EngineSpans& e : r.engine) {
    if (e.has_pin) pin.push_back(e.pin_us);
    if (!e.has_fixpoint) continue;
    (e.plan == "direct" ? direct_fix : mj_fix).push_back(e.fixpoint_us);
  }
  rep->AddPct("engine.view_cache.pin_p99_us", Percentile(pin, 0.99));

  // core.match_join / simulation
  rep->AddPct("core.match_join.fixpoint_p50_us", Percentile(mj_fix, 0.50));
  rep->AddRatio("core.match_join.removed_frac", g.Counter("join.removed_pairs"),
                g.Counter("join.initial_pairs"));
  rep->AddRatio("core.match_join.iterations_per_query",
                g.Counter("join.fixpoint_iterations"),
                g.Counter("engine.plans.match_join"), "count");
  rep->AddPct("simulation.direct_p50_us", Percentile(direct_fix, 0.50));

  // stream
  rep->AddPct("stream.push_p99_us", Percentile(r.push_us, 0.99));
  const obs::HistogramSnapshot batch = g.Hist("stream.batch_size");
  const Pct batch_p50 = HistPercentile(batch, 0.50);
  rep->Add("stream.batch_size_p50", batch_p50.ok ? batch_p50.value : 0.0,
           "count", batch_p50.ok ? "" : "refused");
  rep->AddRatio("stream.coalesced_frac", g.Counter("stream.ops_coalesced"),
                g.Counter("stream.ops_ingested"));
  rep->Add("stream.queue_depth_max", g.GaugeEnd("stream.queue_depth_max"),
           "count");
  rep->AddPct("stream.gen_late_p99_us", Percentile(r.gen_late_us, 0.99));

  // core.maintenance
  rep->AddPct("core.maintenance.apply_p50_us",
              HistPercentile(g.Hist("update.apply_us"), 0.50));
  rep->AddPct("core.maintenance.apply_p99_us",
              HistPercentile(g.Hist("update.apply_us"), 0.99));
  rep->AddPct("core.maintenance.delete_phase_p99_us",
              HistPercentile(g.Hist("update.delete_phase_us"), 0.99));
  rep->AddPct("core.maintenance.insert_phase_p99_us",
              HistPercentile(g.Hist("update.insert_phase_us"), 0.99));
  const double fallbacks = g.Counter("delta.fallbacks");
  rep->AddRatio("core.maintenance.busy_frac",
                g.Hist("update.apply_us").sum / 1e6, window);
  rep->AddRatio("core.maintenance.fallback_frac", fallbacks,
                fallbacks + g.Counter("delta.refreshes"));
  rep->AddRatio("core.maintenance.affected_nodes_per_op",
                g.Counter("delta.affected_nodes"),
                g.Counter("stream.ops_applied"), "count");

  // graph.mvcc
  rep->AddPct("graph.mvcc.asof_p50_us", Percentile(r.asof_us, 0.50));
  rep->Add("graph.mvcc.chain_depth_max", r.chain_depth_max, "count");

  // obs: tracing overhead and the per-layer self-time decomposition.
  const Pct traced_p50 = Percentile(r.query.us, 0.50);
  const Pct plain_p50 = Percentile(untraced.query.us, 0.50);
  rep->Add("obs.trace_overhead_frac",
           traced_p50.ok && plain_p50.ok && plain_p50.value > 0
               ? traced_p50.value / plain_p50.value - 1.0
               : 0.0,
           "ratio", "(traced / untraced query p50 - 1)");
  const LayerSelfTime m = SelfTimeMeans(r, req);
  rep->AddRatio("obs.unattributed_frac", m.unattributed, m.end_to_end);
  const std::pair<const char*, double> layers[] = {
      {"client", m.client},
      {"net", m.net},
      {"executor_queue", m.executor_queue},
      {"planner", m.planner},
      {"result_cache", m.result_cache},
      {"view_cache", m.view_cache},
      {"match_join", m.match_join},
      {"direct_sim", m.direct_sim},
      {"engine_other", m.engine_other},
      {"unattributed", m.unattributed},
  };
  for (const auto& [name, mean] : layers) {
    rep->Add(std::string("trace.self_us.") + name, mean, "us",
             "(mean self time per query)");
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const Report& rep) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < rep.metrics().size(); ++i) {
    const Metric& m = rep.metrics()[i];
    char val[64];
    std::snprintf(val, sizeof(val), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i != 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + val + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <wire_hot|paper_views|ingest_rw>"
                 " --seed N --seconds S --trace <0|1> [--trace-out FILE]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (w->cpus != 0 && !PinToCpus(w->cpus)) {
    std::fprintf(stderr, "perfbench: cannot confine %s to %zu CPU(s)\n",
                 w->name, w->cpus);
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const Clock::time_point g0 = Clock::now();
  const Inputs in = MakeInputs(args.seed);
  std::printf("perfbench %s seed=%llu seconds=%.0f trace=%d cpus=%s: inputs "
              "in %.3f s\n",
              w->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace,
              w->cpus == 0 ? "all" : std::to_string(w->cpus).c_str(),
              UsBetween(g0, Clock::now()) / 1e6);

  Report rep;
  bool correct = true;
  bool refused = false;
  Accounting acct;
  if (args.trace == 0) {
    std::vector<double> setup_s;
    std::unique_ptr<Stack> stack;
    auto build = [&](bool timed) {
      stack.reset();  // tear-down is not set-up time
      double t = 0;
      stack = BuildStack(in, TraceMode::kOff, nullptr, &t);
      if (timed) setup_s.push_back(t);
      return stack != nullptr;
    };
    for (int i = 0; i < kSetupWarmups + kSetups / 2; ++i) {
      if (!build(i >= kSetupWarmups)) return 2;
    }
    SpanLog off(false);
    const PhaseResult r =
        RunPhase(*w, in, stack.get(), args.seconds, &off, nullptr, "untraced");
    while (setup_s.size() < static_cast<size_t>(kSetups)) {
      if (!build(true)) return 2;
    }
    stack.reset();
    correct = r.correct;
    acct = r.acct;
    std::printf("-- end-to-end metrics\n");
    EndToEnd(r, setup_s, &rep, &refused);
  } else {
    SpanLog off(false);
    PhaseResult plain;
    {
      std::unique_ptr<Stack> stack =
          BuildStack(in, TraceMode::kOff, nullptr, nullptr);
      if (stack == nullptr) return 2;
      plain = RunPhase(*w, in, stack.get(), args.seconds * kUntracedShare,
                       &off, nullptr, "untraced");
    }
    SpanLog spans(true);
    std::mutex trees_mu;
    std::vector<EngineSpans> trees;
    std::atomic<bool> recording{false};
    auto sink = [&](const std::string& line) {
      EngineSpans e;
      if (!recording.load() || !FromJsonLine(line, &e)) return;
      std::lock_guard<std::mutex> lk(trees_mu);
      trees.push_back(e);
    };
    PhaseResult traced;
    {
      std::unique_ptr<Stack> stack =
          BuildStack(in, w->traced_mode, sink, nullptr);
      if (stack == nullptr) return 2;
      traced = RunPhase(*w, in, stack.get(),
                        args.seconds * (1 - kUntracedShare), &spans,
                        [&](bool on) { recording.store(on); }, "traced");
    }
    if (w->traced_mode == TraceMode::kSink) traced.engine = std::move(trees);
    std::printf("-- per-layer metrics (traced phase, %zu engine trees, %zu "
                "benchmark spans)\n",
                traced.engine.size(), spans.size());
    PerLayer(traced, plain, &rep);
    correct = plain.correct && traced.correct;
    acct = plain.acct;
    Merge(&acct, traced.acct);
    if (!args.trace_out.empty() &&
        !spans.WriteJsonl(args.trace_out, kTraceFileRequests)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
  if (refused) {
    std::fprintf(stderr,
                 "perfbench: too few samples for an end-to-end percentile\n");
    return 2;
  }
  uint64_t attempted = 0, failed = 0;
  for (const auto& [op, c] : acct) {
    attempted += c.attempted;
    failed += c.failed;
  }
  PrintJson(correct, attempted, failed, rep);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
