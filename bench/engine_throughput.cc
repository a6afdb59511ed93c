/// \file engine_throughput.cc
/// \brief End-to-end throughput of the concurrent view-cache query engine:
/// a 1k-query mixed workload over a generated graph, evaluated in four
/// passes —
///
///   cold: an engine with no registered views (every plan is direct
///         (bounded) simulation on G),
///   warm: an engine whose covering views are materialized up front, so
///         queries answer from the cache via MatchJoin,
///   memo: the warm configuration plus the full-result cache
///         (engine/result_cache.h) — repeats of a (minimized) query whose
///         inputs are unchanged return the memoized Q(G), and
///   memo under updates: the memo configuration with one random
///         single-edge insert batch after every 20 queries, checked
///         against the same stream with the result cache off. Its
///         result-cache hit rate shows how many memoized answers survive
///         batches that leave their views unchanged.
///
/// The result cache is disabled in the cold and warm passes so the gated
/// warm/cold ratio keeps measuring the *view* serving path. All passes run
/// the same queries on the same worker pool; the report gives queries/sec
/// for each, the warm/cold and memo/warm speedups, the cache hit rates,
/// and the eviction counters. A standalone harness (not google-benchmark)
/// because the interesting numbers are the engine's own counters.
///
/// A last section measures the observability tax: the warm pass re-run
/// with the metrics registry on vs off (EngineOptions::obs.enabled — the
/// serve `--no-metrics` baseline), best-of-3 each, interleaved. The hot
/// path per query is a handful of relaxed atomic adds under a shared gate
/// lock, so the ratio is gated tightly in CI.
///
///   ./build/bench/engine_throughput [queries] [threads] [--min-speedup X]
///                                    [--max-obs-overhead F] [--json path]
///
/// With --min-speedup the process exits non-zero when the warm pass is not
/// at least X times faster — the CI smoke gate. With --max-obs-overhead
/// the process exits non-zero when the instrumented warm pass is more than
/// a fraction F slower than the uninstrumented one (CI uses 0.03 = 3%).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "engine/query_engine.h"
#include "workload/graph_gen.h"
#include "workload/pattern_gen.h"

using namespace gpmv;

namespace {

struct PassResult {
  double seconds = 0.0;
  size_t matched = 0;
  size_t total_pairs = 0;
  EngineStats stats;
};

/// Runs `num_queries` submissions cycling through `patterns`. With
/// `insert_every > 0` the queries go in rounds of that many, and after each
/// round one random single-edge insert batch lands (seeded, so two passes
/// see the same graph at every query and must agree on every answer).
PassResult RunPass(QueryEngine& engine, const std::vector<Pattern>& patterns,
                   size_t num_queries, size_t insert_every = 0) {
  PassResult out;
  const size_t num_nodes = engine.num_graph_nodes();
  std::mt19937_64 rng(7);
  Stopwatch wall;
  const size_t round = insert_every > 0 ? insert_every : num_queries;
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(round);
  for (size_t begin = 0; begin < num_queries; begin += round) {
    futures.clear();
    for (size_t i = begin; i < std::min(begin + round, num_queries); ++i) {
      Result<std::future<QueryResponse>> fut =
          engine.Submit(patterns[i % patterns.size()]);
      if (!fut.ok()) {
        std::fprintf(stderr, "submit failed: %s\n",
                     fut.status().ToString().c_str());
        std::exit(1);
      }
      futures.push_back(std::move(*fut));
    }
    for (auto& fut : futures) {
      QueryResponse resp = fut.get();
      if (!resp.status.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     resp.status.ToString().c_str());
        std::exit(1);
      }
      if (resp.result.matched()) {
        ++out.matched;
        out.total_pairs += resp.result.TotalMatches();
      }
    }
    if (insert_every > 0) {
      const NodeId u = static_cast<NodeId>(rng() % num_nodes);
      const NodeId v = static_cast<NodeId>(rng() % num_nodes);
      Status st = engine.ApplyUpdates({EdgeUpdate::Insert(u, v)});
      if (!st.ok()) {
        std::fprintf(stderr, "update failed: %s\n", st.ToString().c_str());
        std::exit(1);
      }
    }
  }
  out.seconds = wall.ElapsedSeconds();
  out.stats = engine.stats();
  return out;
}

double HitRate(size_t hits, size_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

}  // namespace

int main(int argc, char** argv) {
  size_t positionals[2] = {1000, 0};  // queries, threads (0 = hw conc.)
  double min_speedup = 0.0;
  double max_obs_overhead = 0.0;
  std::string json_path;
  if (!gpmv::bench::TakeJsonFlag(&argc, argv, &json_path) ||
      !gpmv::bench::TakeMinSpeedupFlag(&argc, argv, &min_speedup) ||
      !gpmv::bench::TakeDoubleFlag(&argc, argv, "--max-obs-overhead",
                                   &max_obs_overhead) ||
      !gpmv::bench::ParsePositionals(
          argc, argv,
          "engine_throughput [queries] [threads] [--min-speedup X] "
          "[--max-obs-overhead F] [--json path]",
          positionals, 2)) {
    return 2;
  }
  const size_t num_queries = positionals[0];
  const size_t threads = positionals[1];

  // A mid-size random graph and a mixed workload of recurring DAG patterns
  // — the shape a cache layer sees: many submissions, few distinct shapes.
  RandomGraphOptions go;
  go.num_nodes = 40000;
  go.num_edges = 120000;
  go.num_labels = 12;
  go.seed = 2026;
  Graph graph = GenerateRandomGraph(go);

  // Mixed workload: half plain simulation queries, half bounded queries
  // (bounds in [1, 3]) — the regime where views pay off most (Fig. 8(i-l)):
  // direct bounded evaluation runs BFS per candidate (label-blind
  // branching), MatchJoin reads the label-filtered materialized distance
  // pairs.
  std::vector<Pattern> patterns;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RandomPatternOptions po;
    po.num_nodes = 3 + seed % 2;
    po.num_edges = po.num_nodes - 1 + seed % 2;
    po.label_pool = SyntheticLabels(go.num_labels);
    po.dag_only = true;
    po.max_bound = (seed % 2 == 0) ? 3 : 1;
    po.seed = seed;
    patterns.push_back(GenerateRandomPattern(po));
  }

  EngineOptions opts;
  opts.pool.num_threads = threads;
  // Cold/warm measure the view path; the memo pass re-enables the default
  // result cache below.
  opts.result_cache.budget_bytes = 0;

  std::printf("graph: %zu nodes, %zu edges, %zu labels; workload: %zu "
              "queries over %zu distinct patterns\n\n",
              graph.num_nodes(), graph.num_edges(), go.num_labels,
              num_queries, patterns.size());

  // Cold pass: no registered views, every query evaluates directly on G.
  PassResult cold;
  {
    QueryEngine engine(graph, opts);
    cold = RunPass(engine, patterns, num_queries);
  }

  // Warm/memo passes: covering views registered and materialized up front;
  // the stream answers from the cache (and, for memo, the result memo).
  auto run_view_pass = [&](const EngineOptions& pass_opts, PassResult* out,
                           size_t insert_every = 0) {
    QueryEngine engine(graph, pass_opts);
    for (size_t i = 0; i < patterns.size(); ++i) {
      CoveringViewOptions co;
      co.edges_per_view = 2;
      co.num_distractors = 0;
      co.seed = 1000 + i;
      ViewSet cover = GenerateCoveringViews(patterns[i], co);
      for (const ViewDefinition& def : cover.views()) {
        Result<uint32_t> id = engine.RegisterView(
            def.name + "_q" + std::to_string(i), def.pattern);
        if (!id.ok()) {
          std::fprintf(stderr, "register failed: %s\n",
                       id.status().ToString().c_str());
          std::exit(1);
        }
      }
    }
    Status st = engine.WarmViews();
    if (!st.ok()) {
      std::fprintf(stderr, "warmup failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    *out = RunPass(engine, patterns, num_queries, insert_every);
  };
  PassResult warm;
  run_view_pass(opts, &warm);
  PassResult memo;
  EngineOptions memo_opts = opts;
  memo_opts.result_cache = ResultCacheOptions{};  // back to the default
  run_view_pass(memo_opts, &memo);

  // Memo under updates: the memo configuration with one random single-edge
  // insert batch after every kQueriesPerInsert queries. A memoized MatchJoin
  // answer stays valid while the views it joined are unchanged, so most
  // repeats still hit; the same pass with the result cache off sees the same
  // graph at every query and must agree on every answer.
  constexpr size_t kQueriesPerInsert = 20;
  PassResult churn;
  run_view_pass(memo_opts, &churn, kQueriesPerInsert);
  PassResult churn_nomemo;
  run_view_pass(opts, &churn_nomemo, kQueriesPerInsert);
  if (churn.matched != churn_nomemo.matched ||
      churn.total_pairs != churn_nomemo.total_pairs) {
    std::fprintf(stderr,
                 "RESULT MISMATCH under updates: memo matched=%zu pairs=%zu "
                 "vs no memo matched=%zu pairs=%zu\n",
                 churn.matched, churn.total_pairs, churn_nomemo.matched,
                 churn_nomemo.total_pairs);
    return 1;
  }

  if (cold.matched != warm.matched || cold.total_pairs != warm.total_pairs ||
      memo.matched != warm.matched || memo.total_pairs != warm.total_pairs) {
    std::fprintf(stderr,
                 "RESULT MISMATCH: cold matched=%zu pairs=%zu vs warm "
                 "matched=%zu pairs=%zu vs memo matched=%zu pairs=%zu\n",
                 cold.matched, cold.total_pairs, warm.matched,
                 warm.total_pairs, memo.matched, memo.total_pairs);
    return 1;
  }

  const double cold_qps =
      static_cast<double>(num_queries) / std::max(cold.seconds, 1e-9);
  const double warm_qps =
      static_cast<double>(num_queries) / std::max(warm.seconds, 1e-9);
  const double speedup = warm_qps / std::max(cold_qps, 1e-9);
  const size_t lookups = warm.stats.cache.hits + warm.stats.cache.misses;
  const double warm_hit_rate =
      HitRate(warm.stats.cache.hits, warm.stats.cache.misses);

  std::printf("cold (direct on G):   %8.2fs  %9.0f q/s  plans: direct=%zu\n",
              cold.seconds, cold_qps, cold.stats.plans_direct);
  std::printf("warm (view cache):    %8.2fs  %9.0f q/s  plans: "
              "match_join=%zu partial=%zu direct=%zu\n",
              warm.seconds, warm_qps, warm.stats.plans_match_join,
              warm.stats.plans_partial, warm.stats.plans_direct);
  const double memo_qps =
      static_cast<double>(num_queries) / std::max(memo.seconds, 1e-9);
  std::printf("memo (+result cache): %8.2fs  %9.0f q/s  result_cache: "
              "hits=%zu stale_drops=%zu bytes=%zu\n",
              memo.seconds, memo_qps, memo.stats.result_cache.hits,
              memo.stats.result_cache.stale_drops,
              memo.stats.result_cache.bytes_cached);
  const double churn_qps =
      static_cast<double>(num_queries) / std::max(churn.seconds, 1e-9);
  const double churn_nomemo_qps =
      static_cast<double>(num_queries) / std::max(churn_nomemo.seconds, 1e-9);
  const double churn_hit_rate = HitRate(churn.stats.result_cache.hits,
                                        churn.stats.result_cache.misses);
  std::printf("memo under updates:   %8.2fs  %9.0f q/s  (1 insert per %zu "
              "queries; no memo %.0f q/s)  result_cache: hit_rate=%.3f "
              "stale_drops=%zu view_extension_changes=%zu/%zu batches\n",
              churn.seconds, churn_qps, kQueriesPerInsert, churn_nomemo_qps,
              churn_hit_rate, churn.stats.result_cache.stale_drops,
              churn.stats.view_extension_changes,
              churn.stats.update_batches);
  std::printf("speedup (warm/cold):  %8.2fx   (memo/warm: %.2fx)\n", speedup,
              memo_qps / std::max(warm_qps, 1e-9));
  std::printf("matched queries: %zu/%zu, result pairs: %zu (passes agree)\n",
              warm.matched, num_queries, warm.total_pairs);
  std::printf("cache: hit_rate=%.1f%% (%zu/%zu)  evictions=%zu  "
              "installs=%zu  bytes=%zu  warm_queries=%zu\n",
              100.0 * warm_hit_rate,
              warm.stats.cache.hits, lookups, warm.stats.cache.evictions,
              warm.stats.cache.installs, warm.stats.cache.bytes_cached,
              warm.stats.warm_queries);
  // MatchJoin fixpoint telemetry (warm pass): iteration and saturation
  // counters make "the fixpoint got slower" diagnosable from CI logs even
  // when wall-clock numbers are noisy.
  const MatchJoinStats& js = warm.stats.join;
  std::printf("fixpoint: initial_pairs=%zu removed=%zu set_visits=%zu "
              "iterations=%zu counters_zeroed=%zu candidate_ranks=%zu "
              "dist_filtered=%zu cond_filtered=%zu\n",
              js.initial_pairs, js.removed_pairs, js.match_set_visits,
              js.fixpoint_iterations, js.counters_zeroed, js.candidate_ranks,
              js.filtered_by_distance, js.filtered_by_condition);

  // Observability tax: the warm pass with the metrics registry on vs off.
  // Each rep runs the two configurations back to back and takes their
  // ratio — adjacent runs see the same machine state, so drift cancels
  // inside a pair — and the gate uses the median rep (single-rep minima
  // still carry several percent of scheduler noise).
  std::vector<double> obs_ratios;
  double obs_on_s = std::numeric_limits<double>::infinity();
  double obs_off_s = std::numeric_limits<double>::infinity();
  {
    EngineOptions off_opts = opts;
    off_opts.obs.enabled = false;
    for (int rep = 0; rep < 5; ++rep) {
      PassResult on, off;
      run_view_pass(opts, &on);
      run_view_pass(off_opts, &off);
      obs_ratios.push_back(on.seconds / std::max(off.seconds, 1e-9));
      obs_on_s = std::min(obs_on_s, on.seconds);
      obs_off_s = std::min(obs_off_s, off.seconds);
    }
  }
  std::sort(obs_ratios.begin(), obs_ratios.end());
  const double obs_overhead = obs_ratios[obs_ratios.size() / 2] - 1.0;
  std::printf("observability: instrumented %.3fs vs --no-metrics %.3fs "
              "(median overhead %+.2f%%)\n",
              obs_on_s, obs_off_s, 100.0 * obs_overhead);

  gpmv::bench::JsonReport jr("engine_throughput");
  jr.Meta("queries", static_cast<double>(num_queries));
  jr.Add("cold", {{"seconds", cold.seconds}, {"queries_per_sec", cold_qps}});
  jr.Add("warm",
         {{"seconds", warm.seconds},
          {"queries_per_sec", warm_qps},
          {"speedup", speedup},
          {"cache_hit_rate", warm_hit_rate}});
  jr.Add("memo",
         {{"seconds", memo.seconds},
          {"queries_per_sec", memo_qps},
          {"speedup_vs_warm", memo_qps / std::max(warm_qps, 1e-9)},
          {"result_cache_hits",
           static_cast<double>(memo.stats.result_cache.hits)}});
  jr.Add("memo_updates",
         {{"seconds", churn.seconds},
          {"queries_per_sec", churn_qps},
          {"queries_per_insert", static_cast<double>(kQueriesPerInsert)},
          {"result_cache_hit_rate", churn_hit_rate},
          {"speedup_vs_no_memo",
           churn_qps / std::max(churn_nomemo_qps, 1e-9)}});
  jr.Add("observability", {{"instrumented_seconds", obs_on_s},
                           {"no_metrics_seconds", obs_off_s},
                           {"overhead_fraction", obs_overhead}});
  if (!jr.WriteTo(json_path)) return 1;

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below required %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  if (max_obs_overhead > 0.0 && obs_overhead > max_obs_overhead) {
    std::fprintf(stderr,
                 "FAIL: observability overhead %.2f%% above allowed %.2f%%\n",
                 100.0 * obs_overhead, 100.0 * max_obs_overhead);
    return 1;
  }
  return 0;
}
