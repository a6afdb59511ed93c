/// \file common.cc
/// \brief Fixture, stack, oracle, percentile, registry, span, window and
/// caller helpers shared by the three workloads (declarations and
/// contracts in bench.h).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <sys/resource.h>

#include "bench.h"
#include "simulation/bounded.h"
#include "workload/datasets.h"
#include "workload/pattern_gen.h"

namespace perfbench {

using namespace gpmv;

// ------------------------------------------------------------- fixture ---

uint64_t Mix(uint64_t a, uint64_t b) {
  // splitmix64 finalizer over the pair: distinct (a, b) give unrelated seeds.
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.seed = seed;
  in.graph = GenerateAmazonLike(kGraphNodes, Mix(seed, 1));
  in.views = AmazonViews(2);
  for (size_t i = 0; i < kHotQueries; ++i) {
    in.hot.push_back(ContainedQuery(Mix(seed, 100 + i)));
  }
  return in;
}

Pattern ContainedQuery(uint64_t s) {
  const uint32_t nodes = 3 + static_cast<uint32_t>(s % 3);
  const uint32_t edges = nodes + static_cast<uint32_t>((s >> 8) % 3);
  return GenerateAmazonQuery(nodes, edges, 2, s);
}

Pattern PaperQuery(uint64_t seed, uint64_t stream, uint64_t index,
                   bool* contained) {
  const uint64_t s = Mix(Mix(seed, 1000 + stream), index);
  *contained = s % 5 != 0;
  const uint32_t nodes = 3 + static_cast<uint32_t>((s >> 8) % 3);
  if (*contained) {
    const uint32_t edges = nodes + static_cast<uint32_t>((s >> 16) % 3);
    return GenerateAmazonQuery(nodes, edges, 2, s);
  }
  RandomPatternOptions po;
  po.num_nodes = std::min<uint32_t>(nodes, 4);
  po.num_edges = po.num_nodes + static_cast<uint32_t>((s >> 16) % 2);
  po.label_pool = {"Book", "Music", "DVD", "Video",
                   "Software", "Game", "Toy", "Electronics"};
  po.max_bound = 2;
  po.seed = s;
  return GenerateRandomPattern(po);
}

// --------------------------------------------------------------- stack ---

Stack::Stack(Graph graph, const ViewSet& views, TraceMode mode,
             std::function<void(const std::string&)> sink) {
  // `gpmv_cli serve --port` defaults: hardware-concurrency workers with
  // shedding, 64 MB view cache, 8 MB result cache, delta maintenance on,
  // one shard, metrics on, one applier with a 20 ms lag target.
  engine_opts_.pool.shed_when_saturated = true;
  engine_opts_.cache.budget_bytes = size_t{64} << 20;
  engine_opts_.result_cache.budget_bytes = size_t{8} << 20;
  engine_opts_.obs.trace = mode == TraceMode::kResponse;
  if (mode == TraceMode::kSink) {
    engine_opts_.obs.slow_query_ms = 1e-9;  // below every query
    engine_opts_.obs.slow_query_sink = std::move(sink);
  }
  pool_opts_.num_appliers = 1;
  pool_opts_.applier.max_lag_ms = 20.0;

  engine_ = std::make_unique<QueryEngine>(std::move(graph), engine_opts_);
  for (const ViewDefinition& def : views.views()) {
    Result<uint32_t> id = engine_->RegisterView(def.name, def.pattern);
    if (!id.ok()) {
      status_ = id.status();
      return;
    }
  }
  status_ = engine_->WarmViews();
  if (!status_.ok()) return;
  pool_ = std::make_unique<ApplierPool>(engine_.get(), pool_opts_);
  server_ = std::make_unique<net::Server>(engine_.get(), pool_.get(),
                                          net::ServerOptions{});
  status_ = server_->Start();
  if (!status_.ok()) return;
  loop_ = std::thread([this] { server_->Run(); });
}

Stack::~Stack() {
  if (loop_.joinable()) {
    server_->RequestStop();
    loop_.join();
  }
  server_.reset();
  if (pool_ != nullptr) (void)pool_->Stop();
  pool_.reset();
  engine_.reset();
}

// ------------------------------------------------------------- answers ---

uint64_t Digest(bool matched, const std::vector<std::vector<NodePair>>& edges) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto feed = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  feed(matched ? 1 : 0);
  if (!matched) return h;
  for (const std::vector<NodePair>& pairs : edges) {
    feed(pairs.size());
    for (const NodePair& p : pairs) {
      feed((static_cast<uint64_t>(p.first) << 32) | p.second);
    }
  }
  return h;
}

uint64_t Digest(MatchResult result) {
  result.Normalize();
  std::vector<std::vector<NodePair>> edges;
  for (uint32_t e = 0; e < result.num_pattern_edges(); ++e) {
    edges.push_back(result.edge_matches(e));
  }
  return Digest(result.matched(), edges);
}

uint64_t OracleDigest(const Pattern& q, const GraphSnapshot& g) {
  Result<MatchResult> r = MatchBoundedSimulation(q, g);
  if (!r.ok()) return 0;  // never equal to a real digest's FNV state
  return Digest(std::move(r).value());
}

// ------------------------------------------------------------- samples ---

Pct Percentile(std::vector<double> v, double q) {
  Pct p;
  p.n = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  p.value = v[idx];
  p.ok = v.size() - 1 - idx >= 10;
  return p;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void Merge(Accounting* into, const Accounting& from) {
  for (const auto& [k, c] : from) {
    OpCount& d = (*into)[k];
    d.attempted += c.attempted;
    d.succeeded += c.succeeded;
    d.failed += c.failed;
  }
}

// ------------------------------------------------------------ registry ---

double RegistryWindow::Counter(const std::string& name) const {
  return static_cast<double>(b_.CounterValue(name)) -
         static_cast<double>(a_.CounterValue(name));
}

double RegistryWindow::Gauge(const std::string& name) const {
  return b_.GaugeValue(name) - a_.GaugeValue(name);
}

double RegistryWindow::GaugeEnd(const std::string& name) const {
  return b_.GaugeValue(name);
}

obs::HistogramSnapshot RegistryWindow::Hist(const std::string& name) const {
  obs::HistogramSnapshot out;
  out.name = name;
  out.buckets.assign(obs::kHistogramBuckets, 0);
  const obs::HistogramSnapshot* b = b_.FindHistogram(name);
  if (b == nullptr) return out;
  const obs::HistogramSnapshot* a = a_.FindHistogram(name);
  out.count = b->count - (a != nullptr ? a->count : 0);
  out.sum = b->sum - (a != nullptr ? a->sum : 0);
  for (size_t i = 0; i < out.buckets.size() && i < b->buckets.size(); ++i) {
    out.buckets[i] = b->buckets[i] - (a != nullptr ? a->buckets[i] : 0);
  }
  return out;
}

Pct HistPercentile(const obs::HistogramSnapshot& h, double q) {
  Pct p;
  p.n = h.count;
  if (h.count == 0) return p;
  p.value = h.Quantile(q);
  p.ok = static_cast<double>(h.count) * (1.0 - q) >= 10.0;
  return p;
}

// -------------------------------------------------------------- traces ---

EngineSpans FromTree(const obs::TraceSpan& root) {
  EngineSpans e;
  e.total_us = root.dur_ms * 1000.0;
  for (const auto& [k, v] : root.attrs) {
    if (k == "plan") e.plan = v;
  }
  for (const auto& c : root.children) {
    const double us = c->dur_ms * 1000.0;
    if (c->name == "queue.wait") {
      for (const auto& [k, v] : c->attrs) {
        if (k == "wait_ms") e.wait_us = std::atof(v.c_str()) * 1000.0;
      }
    } else if (c->name == "plan") {
      e.plan_us += us;
    } else if (c->name == "result_cache.lookup") {
      e.result_cache_us += us;
    } else if (c->name == "view_cache.pin") {
      e.pin_us += us;
      e.has_pin = true;
    } else if (c->name == "fixpoint") {
      e.fixpoint_us += us;
      e.has_fixpoint = true;
    }
  }
  return e;
}

namespace {

/// Value of the number following `key` at or after `from`; npos-safe.
bool NumberAfter(const std::string& s, const std::string& key, size_t from,
                 double* out) {
  const size_t k = s.find(key, from);
  if (k == std::string::npos) return false;
  *out = std::atof(s.c_str() + k + key.size());
  return true;
}

}  // namespace

bool FromJsonLine(const std::string& line, EngineSpans* out) {
  // TraceToJsonLine: {"trace_id":N,"total_ms":x,"span":{"name":"query",
  // "start_ms":..,"dur_ms":..,"attrs":{..},"children":[{"name":..}, ..]}}.
  // Engine child names are unique per tree, so a flat scan suffices.
  EngineSpans e;
  double v = 0;
  if (line.find("\"name\":\"query\"") == std::string::npos) return false;
  if (!NumberAfter(line, "\"total_ms\":", 0, &v)) return false;
  e.total_us = v * 1000.0;
  const size_t plan_attr = line.find("\"plan\":\"");
  if (plan_attr != std::string::npos) {
    const size_t b = plan_attr + 8;
    e.plan = line.substr(b, line.find('"', b) - b);
  }
  auto span_dur = [&line](const char* name, double* us) {
    const size_t at = line.find(std::string("{\"name\":\"") + name + "\"");
    if (at == std::string::npos) return false;
    double ms = 0;
    if (!NumberAfter(line, "\"dur_ms\":", at, &ms)) return false;
    *us += ms * 1000.0;
    return true;
  };
  const size_t wait = line.find("{\"name\":\"queue.wait\"");
  if (wait != std::string::npos && NumberAfter(line, "\"wait_ms\":", wait, &v)) {
    e.wait_us = v * 1000.0;
  }
  span_dur("plan", &e.plan_us);
  span_dur("result_cache.lookup", &e.result_cache_us);
  e.has_pin = span_dur("view_cache.pin", &e.pin_us);
  e.has_fixpoint = span_dur("fixpoint", &e.fixpoint_us);
  *out = e;
  return true;
}

void SpanLog::Add(uint64_t request, const char* name, const char* parent,
                  Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  SpanRecord r;
  r.request = request;
  r.name = name;
  r.parent = parent;
  r.start_us = UsBetween(origin_, start);
  r.dur_us = UsBetween(start, end);
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(r));
}

void SpanLog::AddSpanTree(uint64_t request, const std::string& parent,
                          const obs::TraceSpan& s, double base_us) {
  SpanRecord r;
  r.request = request;
  r.name = "engine." + s.name;
  r.parent = parent;
  r.start_us = base_us + s.start_ms * 1000.0;
  r.dur_us = s.dur_ms * 1000.0;
  spans_.push_back(r);
  for (const auto& c : s.children) AddSpanTree(request, r.name, *c, base_us);
}

void SpanLog::AddEngineTree(uint64_t request, const char* parent,
                            const obs::TraceSpan& root, Clock::time_point end) {
  if (!enabled_) return;
  const double base = UsBetween(origin_, end) - root.dur_ms * 1000.0;
  std::lock_guard<std::mutex> lk(mu_);
  AddSpanTree(request, parent, root, base);
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

bool SpanLog::WriteJsonl(const std::string& path, size_t max_requests) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  std::lock_guard<std::mutex> lk(mu_);
  // The lowest request ids that recorded spans (warm-up requests record
  // none, so the first ids handed out may have no spans at all).
  std::vector<uint64_t> ids;
  for (const SpanRecord& r : spans_) ids.push_back(r.request);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (ids.size() > max_requests) ids.resize(max_requests);
  char buf[512];
  for (const SpanRecord& r : spans_) {
    if (!std::binary_search(ids.begin(), ids.end(), r.request)) continue;
    std::snprintf(buf, sizeof(buf),
                  "{\"request\":%llu,\"name\":\"%s\",\"parent\":\"%s\","
                  "\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                  static_cast<unsigned long long>(r.request), r.name.c_str(),
                  r.parent.c_str(), r.start_us, r.dur_us);
    out << buf;
  }
  return out.good();
}

void LayerSelfTime::AddEngine(const EngineSpans& e) {
  executor_queue += e.wait_us;
  planner += e.plan_us;
  result_cache += e.result_cache_us;
  view_cache += e.pin_us;
  (e.plan == "direct" ? direct_sim : match_join) += e.fixpoint_us;
  engine_other +=
      e.total_us - e.plan_us - e.result_cache_us - e.pin_us - e.fixpoint_us;
}

void LayerSelfTime::AddInProcess(double us, const EngineSpans* e) {
  if (e != nullptr) {
    AddEngine(*e);
    unattributed += us - e->wait_us - e->total_us;
  } else {
    unattributed += us;
  }
  end_to_end += us;
  ++queries;
}

void LayerSelfTime::Merge(const LayerSelfTime& o) {
  client += o.client;
  net += o.net;
  executor_queue += o.executor_queue;
  planner += o.planner;
  result_cache += o.result_cache;
  view_cache += o.view_cache;
  match_join += o.match_join;
  direct_sim += o.direct_sim;
  engine_other += o.engine_other;
  unattributed += o.unattributed;
  end_to_end += o.end_to_end;
  queries += o.queries;
}

// -------------------------------------------------------------- window ---

namespace {

double ProcessCpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Machine-wide steal time (the 8th field of /proc/stat's cpu line): time
/// the hypervisor ran something else while this guest's vCPUs were ready.
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) / 100.0 : 0.0;
}

/// Peak resident set (VmHWM) in MB.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::chrono::microseconds Micros(double seconds) {
  return std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
}

}  // namespace

void RunWindow(
    const PhaseArgs& a, PhaseResult* out,
    const std::function<void(const Window&, std::vector<std::thread>*)>& spawn,
    const std::function<void()>& at_end) {
  Window w;
  w.start = Clock::now();
  w.measure_from = w.start + Micros(a.warmup_s);
  w.end = w.measure_from + Micros(a.seconds);
  std::vector<std::thread> threads;
  spawn(w, &threads);

  std::this_thread::sleep_until(w.measure_from);
  out->cpu_s = -ProcessCpuSeconds();
  out->steal_s = -StealSeconds();
  out->window_start = Clock::now();
  out->reg.Begin(a.stack->engine().metrics());
  if (a.on_window) a.on_window(true);

  std::this_thread::sleep_until(w.end);
  if (a.on_window) a.on_window(false);
  out->reg.End(a.stack->engine().metrics());
  out->cpu_s += ProcessCpuSeconds();
  out->steal_s += StealSeconds();
  out->window_s = UsBetween(out->window_start, Clock::now()) / 1e6;
  out->rss_mb = PeakRssMb();
  if (at_end) at_end();

  w.stop.store(true);
  for (std::thread& t : threads) t.join();
}

// ------------------------------------------------------------- callers ---

void CallerStats::MergeInto(PhaseResult* out) const {
  out->query.Append(query);
  out->engine.insert(out->engine.end(), engine.begin(), engine.end());
  out->layers.Merge(layers);
  Merge(&out->acct, acct);
}

Submitted TimedSubmit(const PhaseArgs& a, const Window& w, Pattern q,
                      const QueryOptions& qo, const char* op,
                      const char* span, CallerStats* s) {
  Submitted out;
  const uint64_t req = a.spans->NextRequest();
  const Clock::time_point t0 = Clock::now();
  out.measured = t0 >= w.measure_from;
  OpCount& oc = s->acct[op];
  if (out.measured) ++oc.attempted;
  Result<std::future<QueryResponse>> fut =
      a.stack->engine().Submit(std::move(q), qo);
  if (fut.ok()) out.resp = fut->get();
  const Clock::time_point t1 = Clock::now();
  out.ok = fut.ok() && out.resp.status.ok();
  if (!out.measured) return out;
  if (!out.ok) {
    ++oc.failed;
    return out;
  }
  ++oc.succeeded;
  out.us = UsBetween(t0, t1);
  s->query.Add(t0, t1);
  a.spans->Add(req, span, "", t0, t1);
  EngineSpans e;
  if (out.resp.trace != nullptr) {
    a.spans->AddEngineTree(req, span, *out.resp.trace, t1);
    e = FromTree(*out.resp.trace);
    s->engine.push_back(e);
  }
  s->layers.AddInProcess(out.us, out.resp.trace != nullptr ? &e : nullptr);
  return out;
}

}  // namespace perfbench
