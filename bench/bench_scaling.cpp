// Experiment X4: runtime scaling (google-benchmark).
//
// CBTC itself is a distributed algorithm; what scales here is our
// centralized engine and the simulation substrate. Scenario execution
// goes through the cbtc::api façade (deploy + method + metrics);
// the remaining micro-benchmarks time the geometric substrate the
// engine is built on. Constant density is maintained by growing the
// region with the node count.
// A machine-readable JSON record (google-benchmark's format) is
// written only when asked: pass `--out PATH` (or the standard
// --benchmark_out flags). Runs without an output flag leave no file
// behind.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/gain_removal.h"
#include "algo/oracle.h"
#include "algo/pipeline.h"
#include "algo/stc.h"
#include "api/api.h"
#include "api/dispatch.h"
#include "geom/random_points.h"
#include "geom/spatial_grid.h"
#include "graph/digraph.h"
#include "graph/euclidean.h"
#include "graph/live_index.h"
#include "graph/metrics.h"
#include "net/service.h"
#include "radio/propagation.h"
#include "util/parallel.h"

namespace {

using namespace cbtc;

double density_side_for(std::int64_t nodes) {
  // 100 nodes <-> 1500^2 (the paper's density).
  return 1500.0 * std::sqrt(static_cast<double>(nodes) / 100.0);
}

/// Scenario at the paper's density with `nodes` nodes; metrics off so
/// the engine time is dominated by the algorithm under test.
api::scenario_spec scaling_spec(std::int64_t nodes) {
  api::scenario_spec spec;
  spec.deploy.nodes = static_cast<std::size_t>(nodes);
  spec.deploy.region_side = density_side_for(nodes);
  spec.base_seed = 42;
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  return spec;
}

std::vector<geom::vec2> make_positions(std::int64_t nodes) {
  return scaling_spec(nodes).make_positions(0);
}

const radio::power_model pm(2.0, 500.0);
const api::engine eng;

// -- dispatched batch vs in-process batch ------------------------------
// Registered first on purpose: the executor's worker set only grows,
// so these rows must run before any wider task has spawned workers
// they would otherwise inherit.

/// The paper's experiment over the wire: range(0) paper_table1 seeds
/// dispatched to two in-process loopback shards of width 2 — two
/// concurrent top-level batches in one process. Gated as a ratio
/// against BM_DispatchInProcess (same seeds, one width-4 batch): the
/// executor must give each shard its own helper, or the dispatch runs
/// on three threads instead of four. Requests carry 16 blocks (8 per
/// shard thread, as a 4096-seed sweep's default requests do): the
/// default sizing would cut 512 seeds into 4-block requests, whose
/// per-request tails are the dispatcher's cost, not the executor's.
void BM_DispatchLoopback(benchmark::State& state) {
  constexpr unsigned shard_threads = 2;
  const api::scenario_spec spec = api::get_scenario("paper_table1");
  const api::seed_range seeds{0, static_cast<std::uint64_t>(state.range(0))};
  api::dispatch_config cfg;
  cfg.shard_threads = shard_threads;
  cfg.blocks_per_request = 16;
  std::vector<std::unique_ptr<net::scenario_server>> servers;
  std::vector<std::thread> serving;
  for (int i = 0; i < 2; ++i) {
    net::serve_config sc;
    sc.threads = shard_threads;
    servers.push_back(std::make_unique<net::scenario_server>(sc));
    cfg.endpoints.push_back({"127.0.0.1", servers.back()->port()});
    serving.emplace_back([s = servers.back().get()] { s->run(); });
  }
  {
    api::shard_dispatcher dispatcher(std::move(cfg));
    for (auto _ : state) {
      benchmark::DoNotOptimize(dispatcher.run_batch(spec, seeds));
    }
  }
  for (auto& s : servers) s->stop();
  for (std::thread& t : serving) t.join();
}
// Real time: the calling thread only waits on sockets. A fixed
// iteration count keeps the row name independent of the library's
// min-time formatting.
BENCHMARK(BM_DispatchLoopback)
    ->Arg(512)
    ->Iterations(3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DispatchInProcess(benchmark::State& state) {
  const api::scenario_spec spec = api::get_scenario("paper_table1");
  const api::seed_range seeds{0, static_cast<std::uint64_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run_batch(spec, seeds, 4));
  }
}
BENCHMARK(BM_DispatchInProcess)
    ->Arg(512)
    ->Iterations(3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EngineOracle(benchmark::State& state) {
  const api::scenario_spec spec = scaling_spec(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EngineOracle)->RangeMultiplier(2)->Range(100, 1600)->Complexity();

void BM_EngineFullPipeline(benchmark::State& state) {
  api::scenario_spec spec = scaling_spec(state.range(0));
  spec.opts = algo::optimization_set::all();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EngineFullPipeline)->RangeMultiplier(2)->Range(100, 1600)->Complexity();

void BM_EngineProtocol(benchmark::State& state) {
  api::scenario_spec spec = scaling_spec(state.range(0));
  spec.method = api::method_spec::protocol();
  spec.protocol.agent.round_timeout = 0.5;
  spec.protocol.channel.base_delay = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EngineProtocol)->RangeMultiplier(2)->Range(50, 200)->Complexity();

/// Multi-seed batch throughput: 8 instances of the paper workload per
/// iteration, fanned over state.range(0) threads.
void BM_EngineBatch(benchmark::State& state) {
  api::scenario_spec spec = scaling_spec(100);
  spec.opts = algo::optimization_set::all();
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run_batch(spec, {0, 8}, threads));
  }
}
BENCHMARK(BM_EngineBatch)->Arg(1)->Arg(2)->Arg(4);

/// Executor nesting: a 48-seed batch of 400-node instances with
/// range(0) batch threads x range(1) intra threads, all drawing from
/// the one process-wide pool. The headline row is (4, 4) — before the
/// shared executor that combination stood up 16 competing threads;
/// now it composes (and the report is bitwise identical to (1, 1)).
void BM_EngineBatchNestedThreads(benchmark::State& state) {
  api::scenario_spec spec = scaling_spec(400);
  spec.opts = algo::optimization_set::all();
  spec.cbtc.intra_threads = static_cast<unsigned>(state.range(1));
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run_batch(spec, {0, 48}, threads));
  }
}
BENCHMARK(BM_EngineBatchNestedThreads)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({1, 4})
    ->Args({4, 4})
    ->Args({8, 8})
    ->Unit(benchmark::kMillisecond);

// -- per-link propagation: isotropic vs shadowed ----------------------

/// The isotropic rows above gate "the propagation layer costs nothing
/// when unused" (they run the exact pre-propagation code path); these
/// rows measure what a non-uniform gain field adds: per-candidate gain
/// hashing in growth, per-link filtering in G_R and the dynamic index.
api::scenario_spec shadowed_scaling_spec(std::int64_t nodes) {
  api::scenario_spec spec = scaling_spec(nodes);
  spec.radio.propagation = {.kind = radio::propagation_kind::lognormal_shadowing,
                            .sigma_db = 4.0,
                            .clamp_db = 8.0};
  return spec;
}

const radio::link_model shadowed_link(pm, radio::propagation_model::lognormal_shadowing(4.0, 8.0,
                                                                                        42));

void BM_EngineOracleShadowed(benchmark::State& state) {
  const api::scenario_spec spec = shadowed_scaling_spec(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EngineOracleShadowed)->RangeMultiplier(2)->Range(100, 1600)->Complexity();

/// Whole static runs at 20k nodes (the preset's density), metrics off,
/// on a 4-wide pool: the shadowed_field preset's growth and options (continuous growth,
/// shrink-back, gain-aware op3), and its isotropic twin (the same
/// request without gains, so op3 is the angle pass). Their ratio gates
/// what per-link gains add to a run end to end; with G_R priced once
/// per run, growth, op3 and the power pass read the column instead of
/// evaluating gains again.
api::scenario_spec lean_spec(std::int64_t nodes, bool shadowed) {
  api::scenario_spec spec = api::get_scenario("shadowed_field");
  spec.deploy.region_side *= std::sqrt(static_cast<double>(nodes) /
                                       static_cast<double>(spec.deploy.nodes));
  spec.deploy.nodes = static_cast<std::size_t>(nodes);
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  spec.cbtc.intra_threads = 4;
  if (!shadowed) {
    spec.radio.propagation = {};
    spec.opts = {.shrink_back = true, .pairwise_removal = true};
  }
  return spec;
}

void BM_EngineLean(benchmark::State& state) {
  const api::scenario_spec spec = lean_spec(state.range(0), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec, 1));
  }
}
BENCHMARK(BM_EngineLean)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_EngineLeanShadowed(benchmark::State& state) {
  const api::scenario_spec spec = lean_spec(state.range(0), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec, 1));
  }
}
BENCHMARK(BM_EngineLeanShadowed)->Arg(20000)->Unit(benchmark::kMillisecond);

/// Whole paper_table1 runs at the paper's density on a 4-wide pool,
/// large enough (100k nodes) that the Morton relabeling engages: with
/// the default metrics (power and hop stretch, interference, cut
/// vertices) and without them. Their ratio is what the metric passes
/// add to a run end to end; the stretch passes walk G_R in pipeline
/// labels with an indexed 4-ary heap.
api::scenario_spec table1_spec(std::int64_t nodes, bool metrics) {
  api::scenario_spec spec = api::get_scenario("paper_table1");
  spec.deploy.region_side *= std::sqrt(static_cast<double>(nodes) /
                                       static_cast<double>(spec.deploy.nodes));
  spec.deploy.nodes = static_cast<std::size_t>(nodes);
  spec.cbtc.intra_threads = 4;
  if (!metrics) spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  return spec;
}

void BM_EngineMetrics(benchmark::State& state) {
  const api::scenario_spec spec = table1_spec(state.range(0), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec, 1));
  }
}
BENCHMARK(BM_EngineMetrics)->Arg(100000)->Iterations(2)->Unit(benchmark::kMillisecond);

void BM_EngineMetricsOff(benchmark::State& state) {
  const api::scenario_spec spec = table1_spec(state.range(0), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec, 1));
  }
}
BENCHMARK(BM_EngineMetricsOff)->Arg(100000)->Iterations(2)->Unit(benchmark::kMillisecond);

void BM_MaxPowerGraphGridShadowed(benchmark::State& state) {
  const auto positions = make_positions(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_max_power_graph(positions, shadowed_link));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxPowerGraphGridShadowed)->RangeMultiplier(2)->Range(100, 1600)->Complexity();

// -- op3 passes: Theorem 3.6 angle witness vs gain-aware link power ---

/// Growth + shrink-back topology and candidate graph per (nodes,
/// shadowed) pair, built once and shared across the op3 rows so the
/// timed region is the removal / STC pass alone.
struct removal_fixture {
  std::vector<geom::vec2> positions;
  graph::undirected_graph topology;
  graph::priced_graph candidates;
};

const removal_fixture& removal_instance(std::int64_t nodes, bool shadowed) {
  static std::map<std::pair<std::int64_t, bool>, removal_fixture> cache;
  const auto [it, fresh] = cache.try_emplace({nodes, shadowed});
  if (fresh) {
    removal_fixture& f = it->second;
    f.positions = make_positions(nodes);
    const radio::link_model link = shadowed ? shadowed_link : radio::link_model(pm);
    algo::cbtc_params params;
    params.mode = algo::growth_mode::continuous;
    params.intra_threads = 0;
    f.topology = algo::build_topology(f.positions, link, params, {.shrink_back = true}).topology;
    util::thread_pool pool(0);
    f.candidates = graph::build_priced_max_power_graph(f.positions, link, pool);
  }
  return it->second;
}

/// Denominator row for the machine-independent gain-aware/pairwise
/// ratio gate in bench/baseline_scaling.json.
void BM_PairwiseRemoval(benchmark::State& state) {
  const removal_fixture& f = removal_instance(state.range(0), false);
  util::thread_pool pool(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::apply_pairwise_removal(f.topology, f.positions, {}, pool));
  }
}
BENCHMARK(BM_PairwiseRemoval)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_GainAwareRemoval(benchmark::State& state) {
  const removal_fixture& f = removal_instance(state.range(0), false);
  const radio::link_model link(pm);
  util::thread_pool pool(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        algo::apply_gain_aware_removal(f.topology, f.candidates, f.positions, link, {}, pool));
  }
}
BENCHMARK(BM_GainAwareRemoval)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_GainAwareRemovalShadowed(benchmark::State& state) {
  const removal_fixture& f = removal_instance(state.range(0), true);
  util::thread_pool pool(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::apply_gain_aware_removal(f.topology, f.candidates, f.positions,
                                                            shadowed_link, {}, pool));
  }
}
BENCHMARK(BM_GainAwareRemovalShadowed)->Arg(10000)->Unit(benchmark::kMillisecond);

/// Sethu-Gerety STC over the prebuilt priced shadowed candidate graph.
void BM_StcGrowth(benchmark::State& state) {
  const removal_fixture& f = removal_instance(state.range(0), true);
  util::thread_pool pool(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::build_stc_topology(f.candidates, pool));
  }
}
BENCHMARK(BM_StcGrowth)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_EngineBaselineMst(benchmark::State& state) {
  api::scenario_spec spec = scaling_spec(state.range(0));
  spec.method = api::method_spec::of_baseline(api::baseline_kind::euclidean_mst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
}
BENCHMARK(BM_EngineBaselineMst)->RangeMultiplier(2)->Range(100, 800);

// -- intra-instance parallel growth (serial vs threaded, large n) -----

/// Times the oracle growth loop alone (algo::run_cbtc over a prebuilt
/// G_R) on one large instance: range(0) nodes at the paper's density,
/// range(1) intra threads. G_R is built once, outside the timing loop,
/// as the engine does per run. The 10k x {1, 4} pair is the headline
/// intra-parallel speedup row; results are bitwise identical across
/// the thread axis.
void BM_CbtcGrowthIntraThreads(benchmark::State& state) {
  const auto positions = make_positions(state.range(0));
  algo::cbtc_params params;
  params.mode = algo::growth_mode::continuous;
  params.intra_threads = static_cast<unsigned>(state.range(1));
  util::thread_pool pool(params.intra_threads);
  const graph::priced_graph gr{graph::build_max_power_graph(positions, pm, pool)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::run_cbtc(positions, pm, params, gr));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CbtcGrowthIntraThreads)
    ->ArgsProduct({{10000, 50000}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

/// Full engine run (growth + optimizations + invariants + metrics) on
/// a large instance, serial vs 4 intra threads.
void BM_EngineOracleIntraThreads(benchmark::State& state) {
  api::scenario_spec spec = scaling_spec(state.range(0));
  spec.cbtc.intra_threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
}
BENCHMARK(BM_EngineOracleIntraThreads)
    ->ArgsProduct({{10000}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

// -- million-node static pipeline -------------------------------------

/// The growth-construction gate: one full oracle engine run at the
/// paper's density on a hardware-width pool. At these sizes the flat
/// CSR topology, the Morton relabeling pass (on by default above
/// relabel_min_nodes), and the parallel scatter passes all engage —
/// this is the configuration the million-node acceptance row times.
/// One iteration per measurement: the 1M row is seconds-scale, and the
/// machine-independent gate is the 1M/100k *ratio*, not the absolute.
void BM_Growth(benchmark::State& state) {
  api::scenario_spec spec = scaling_spec(state.range(0));
  spec.cbtc.intra_threads = 0;  // hardware width
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Growth)->Arg(100000)->Arg(1000000)->Iterations(1)->Unit(benchmark::kMillisecond);

/// An asymmetric ~100k-node digraph for the closure rows: max-power
/// adjacency with a deterministic third of the arcs dropped, so the
/// in-neighbor scatter has real work (union of out- and in-lists).
graph::digraph closure_instance(std::int64_t nodes) {
  const auto positions = make_positions(nodes);
  util::thread_pool pool(0);
  const graph::undirected_graph gr = graph::build_max_power_graph(positions, pm, pool);
  std::vector<std::size_t> offsets(gr.num_nodes() + 1, 0);
  std::vector<graph::node_id> arcs;
  for (graph::node_id u = 0; u < gr.num_nodes(); ++u) {
    for (const graph::node_id v : gr.neighbors(u)) {
      if ((u + 2u * v) % 3u != 0u) arcs.push_back(v);
    }
    offsets[u + 1] = arcs.size();
  }
  return graph::digraph::from_csr(std::move(offsets), std::move(arcs));
}

/// The one symmetric_closure implementation at width 1 vs the full
/// hardware width. The full-width / width-1 ratio is the bench gate:
/// the two-pass count/fill scatter must never lose to its own width-1
/// run (ratio near 1 on single-core runners, well under on multi-core
/// ones). The "Serial" row name is kept so --history artifacts line up.
void BM_SymmetricClosureSerial(benchmark::State& state) {
  const graph::digraph d = closure_instance(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.symmetric_closure(util::serial_pool()));
  }
}
BENCHMARK(BM_SymmetricClosureSerial)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_SymmetricClosureParallel(benchmark::State& state) {
  const graph::digraph d = closure_instance(state.range(0));
  util::thread_pool pool(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.symmetric_closure(pool));
  }
}
BENCHMARK(BM_SymmetricClosureParallel)->Arg(100000)->Unit(benchmark::kMillisecond);

/// The sampled power-stretch pass (the engine's default 8 sources) of
/// the growth + shrink-back topology against G_R, at width 1 vs the full
/// hardware width. The Parallel/Serial ratio is the bench gate: the
/// (source, graph) Dijkstra jobs must actually fan out. Both widths
/// return bitwise-identical stats.
void BM_PowerStretchSerial(benchmark::State& state) {
  const removal_fixture& f = removal_instance(state.range(0), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::power_stretch(f.topology, f.candidates.graph, f.positions,
                                                  pm.exponent(), 8, util::serial_pool()));
  }
}
BENCHMARK(BM_PowerStretchSerial)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_PowerStretchParallel(benchmark::State& state) {
  const removal_fixture& f = removal_instance(state.range(0), false);
  util::thread_pool pool(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::power_stretch(f.topology, f.candidates.graph, f.positions, pm.exponent(), 8, pool));
  }
}
BENCHMARK(BM_PowerStretchParallel)->Arg(100000)->Unit(benchmark::kMillisecond);

// -- dynamic sampling: per-tick full rebuild vs incremental index -----

namespace dynamic_tick {

/// One mobility tick: every node advances by its velocity, bouncing at
/// the region boundary — the motion the incremental index absorbs as
/// move() deltas and the rebuild strategy answers by reconstructing
/// G_R from scratch.
struct motion {
  explicit motion(std::int64_t nodes)
      : side(density_side_for(nodes)), positions(make_positions(nodes)) {
    velocities.reserve(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      // Deterministic per-node heading; speeds ~ a few units per tick.
      const double a = 0.7 * static_cast<double>(i % 97);
      velocities.push_back({3.0 * std::cos(a), 3.0 * std::sin(a)});
    }
  }

  void step() {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      geom::vec2 p = positions[i] + velocities[i];
      if (p.x < 0.0 || p.x > side) {
        velocities[i].x = -velocities[i].x;
        p.x = std::clamp(p.x, 0.0, side);
      }
      if (p.y < 0.0 || p.y > side) {
        velocities[i].y = -velocities[i].y;
        p.y = std::clamp(p.y, 0.0, side);
      }
      positions[i] = p;
    }
  }

  double side;
  std::vector<geom::vec2> positions;
  std::vector<geom::vec2> velocities;
};

}  // namespace dynamic_tick

void BM_DynamicTickFullRebuild(benchmark::State& state) {
  dynamic_tick::motion m(state.range(0));
  for (auto _ : state) {
    m.step();
    benchmark::DoNotOptimize(graph::build_max_power_graph(m.positions, pm));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DynamicTickFullRebuild)
    ->Arg(1000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_DynamicTickIncrementalIndex(benchmark::State& state) {
  dynamic_tick::motion m(state.range(0));
  graph::live_neighbor_index index(m.positions, pm.max_range());
  for (auto _ : state) {
    m.step();
    for (std::size_t i = 0; i < m.positions.size(); ++i) {
      index.move(static_cast<graph::node_id>(i), m.positions[i]);
    }
    benchmark::DoNotOptimize(index.num_edges());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DynamicTickIncrementalIndex)
    ->Arg(1000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

/// The same mobility ticks against a gain-aware index: every candidate
/// that enters a node's pruning radius pays one link filter.
void BM_DynamicTickIncrementalIndexShadowed(benchmark::State& state) {
  dynamic_tick::motion m(state.range(0));
  graph::live_neighbor_index index(m.positions, shadowed_link);
  for (auto _ : state) {
    m.step();
    for (std::size_t i = 0; i < m.positions.size(); ++i) {
      index.move(static_cast<graph::node_id>(i), m.positions[i]);
    }
    benchmark::DoNotOptimize(index.num_edges());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DynamicTickIncrementalIndexShadowed)
    ->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// Obstacle-field ticks: a gain-row miss costs one segment test per
/// obstacle, so this row gates the per-node gain cache — steady-state
/// ticks must re-filter mostly from cached rows (epoch-invalidated
/// only around the mover) instead of re-walking the obstacle list for
/// every candidate.
radio::link_model obstacle_tick_link(std::int64_t nodes) {
  const double side = density_side_for(nodes);
  std::vector<radio::obstacle> walls;
  for (int i = 0; i < 12; ++i) {
    // A deterministic scatter of long thin walls across the field.
    const double x = side * (0.08 + 0.077 * i);
    const double y = side * (0.13 + 0.061 * (i * 5 % 11));
    const bool horizontal = (i % 2) == 0;
    walls.push_back({.box = {{x, y}, {x + (horizontal ? side * 0.18 : 8.0),
                                      y + (horizontal ? 8.0 : side * 0.18)}},
                     .loss_db = 6.0});
  }
  return {pm, radio::propagation_model::obstacle_field(std::move(walls))};
}

void BM_DynamicTickIncrementalIndexObstacles(benchmark::State& state) {
  dynamic_tick::motion m(state.range(0));
  graph::live_neighbor_index index(m.positions, obstacle_tick_link(state.range(0)));
  for (auto _ : state) {
    m.step();
    for (std::size_t i = 0; i < m.positions.size(); ++i) {
      index.move(static_cast<graph::node_id>(i), m.positions[i]);
    }
    benchmark::DoNotOptimize(index.num_edges());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DynamicTickIncrementalIndexObstacles)
    ->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// -- dynamic runs: the agent-table mirror under churn -----------------

/// A churn + mobility workload whose connectivity is re-evaluated at
/// every topology-changing event, read in place from the incremental
/// closure_mirror. range(0) nodes.
void BM_DynamicCaptureMirror(benchmark::State& state) {
  api::scenario_spec spec = scaling_spec(state.range(0));
  spec.method = api::method_spec::protocol();
  spec.protocol.agent.round_timeout = 0.5;
  spec.protocol.channel.base_delay = 0.01;
  api::sim_spec dyn;
  dyn.horizon = 40.0;
  dyn.settle = 12.0;
  dyn.sample_every = 4.0;
  dyn.mobility = {.kind = api::mobility_kind::random_waypoint,
                  .min_speed = 2.0,
                  .max_speed = 8.0,
                  .tick = 0.5,
                  .start = 12.0};
  dyn.failures.random_crashes = state.range(0) / 20;
  dyn.failures.window_begin = 14.0;
  dyn.failures.window_end = 30.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run_dynamic(spec, dyn, 0));
  }
  state.SetComplexityN(state.range(0));
}

BENCHMARK(BM_DynamicCaptureMirror)->Arg(150)->Arg(600)->Unit(benchmark::kMillisecond);

// -- convergecast data plane: traffic on vs off -----------------------

/// The registered convergecast preset (64-node lattice streaming
/// periodic readings to a corner sink) with and without the traffic
/// layer. The Base row runs the identical dynamic simulation minus
/// traffic, so the machine-independent gate is the Tick/Base *ratio*:
/// the packet layer (routing refreshes, queueing, per-hop forwarding)
/// must stay a bounded fraction on top of the protocol simulation, not
/// dominate it.
void run_convergecast(benchmark::State& state, bool traffic_on) {
  api::dynamic_scenario preset = api::get_dynamic_scenario("convergecast_grid");
  preset.scenario.deploy.nodes = static_cast<std::size_t>(state.range(0));
  if (!traffic_on) preset.sim.traffic = {};
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run_dynamic(preset.scenario, preset.sim, 0));
  }
}

void BM_ConvergecastTick(benchmark::State& state) { run_convergecast(state, true); }
void BM_ConvergecastBase(benchmark::State& state) { run_convergecast(state, false); }
BENCHMARK(BM_ConvergecastTick)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ConvergecastBase)->Arg(64)->Unit(benchmark::kMillisecond);

// -- partitioned dynamic engine: single queue vs regioned lanes -------

/// The 100k-node mobile-churn acceptance row for the spatially
/// partitioned event engine: a full dynamic run (protocol build-out,
/// NDP beaconing, waypoint mobility, crashes) on one queue versus 16
/// regions x 4 intra threads. Reports are bitwise identical (tests
/// assert it); the machine-independent gate is the partitioned/serial
/// *ratio*, which must show a real speedup, not parity. One iteration
/// per measurement — the rows are seconds-scale.
void run_dynamic_partitioned(benchmark::State& state, std::uint32_t regions, unsigned threads) {
  api::scenario_spec spec = scaling_spec(state.range(0));
  spec.method = api::method_spec::protocol();
  spec.protocol.agent.round_timeout = 0.5;
  spec.protocol.channel.base_delay = 0.01;
  spec.cbtc.intra_threads = threads;
  api::sim_spec dyn;
  dyn.horizon = 6.0;
  dyn.settle = 3.0;
  dyn.sample_every = 1.5;
  dyn.mobility = {.kind = api::mobility_kind::random_waypoint,
                  .min_speed = 2.0,
                  .max_speed = 8.0,
                  .tick = 0.5,
                  .start = 3.0};
  dyn.failures.random_crashes = state.range(0) / 100;
  dyn.failures.window_begin = 3.5;
  dyn.failures.window_end = 5.5;
  dyn.partition.regions = regions;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run_dynamic(spec, dyn, 0));
  }
  state.SetComplexityN(state.range(0));
}

/// One settled-instant connectivity evaluation (both verdicts) on the
/// closure mirror and live index of a finished range(0)-node
/// mobile-churn protocol run: the final closure topology, positions
/// and liveness, with crashed nodes down in both views. The run is
/// built once per process; each iteration is one
/// graph::evaluate_connectivity call on the run's 4-wide pool.
void BM_DynamicEvaluate(benchmark::State& state) {
  struct settled {
    graph::live_neighbor_index index;
    graph::closure_mirror mirror;
  };
  static std::map<std::int64_t, settled> cache;
  auto it = cache.find(state.range(0));
  if (it == cache.end()) {
    api::scenario_spec spec = scaling_spec(state.range(0));
    spec.method = api::method_spec::protocol();
    spec.protocol.agent.round_timeout = 0.5;
    spec.protocol.channel.base_delay = 0.01;
    spec.cbtc.intra_threads = 4;
    api::sim_spec dyn;
    dyn.horizon = 6.0;
    dyn.settle = 3.0;
    dyn.sample_every = 1.5;
    dyn.mobility = {.kind = api::mobility_kind::random_waypoint,
                    .min_speed = 2.0,
                    .max_speed = 8.0,
                    .tick = 0.5,
                    .start = 3.0};
    dyn.failures.random_crashes = state.range(0) / 100;
    dyn.failures.window_begin = 3.5;
    dyn.failures.window_end = 5.5;
    dyn.partition.regions = 16;
    const api::dynamic_report rep = eng.run_dynamic(spec, dyn, 0);
    settled s{graph::live_neighbor_index(rep.final_positions, spec.link(0)),
              graph::closure_mirror(rep.final_positions.size())};
    for (graph::node_id u = 0; u < rep.up.size(); ++u) {
      if (rep.up[u]) continue;
      s.index.erase(u);
      s.mirror.set_live(u, false);
    }
    for (graph::node_id u = 0; u < rep.final_topology.num_nodes(); ++u) {
      for (const graph::node_id v : rep.final_topology.neighbors(u)) {
        if (u < v) s.mirror.add_arc(u, v);
      }
    }
    it = cache.emplace(state.range(0), std::move(s)).first;
  }
  util::thread_pool pool(4);
  graph::connectivity_scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::evaluate_connectivity(it->second.mirror, it->second.index,
                                                          scratch, pool));
  }
}
BENCHMARK(BM_DynamicEvaluate)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_DynamicTickSerial(benchmark::State& state) { run_dynamic_partitioned(state, 1, 1); }
void BM_DynamicTickPartitioned(benchmark::State& state) {
  run_dynamic_partitioned(state, 16, 4);
}
BENCHMARK(BM_DynamicTickSerial)->Arg(100000)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DynamicTickPartitioned)->Arg(100000)->Iterations(1)->Unit(benchmark::kMillisecond);

// -- substrate micro-benchmarks (not scenario orchestration) ----------

void BM_MaxPowerGraphGrid(benchmark::State& state) {
  const auto positions = make_positions(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_max_power_graph(positions, pm));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxPowerGraphGrid)->RangeMultiplier(2)->Range(100, 1600)->Complexity();

void BM_MaxPowerGraphBrute(benchmark::State& state) {
  const auto positions = make_positions(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_max_power_graph_brute(positions, pm.max_range()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxPowerGraphBrute)->RangeMultiplier(2)->Range(100, 1600)->Complexity();

void BM_SpatialGridBuild(benchmark::State& state) {
  const auto positions = make_positions(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::spatial_grid(positions, pm.max_range()));
  }
}
BENCHMARK(BM_SpatialGridBuild)->RangeMultiplier(4)->Range(100, 6400);

void BM_SpatialGridQuery(benchmark::State& state) {
  const auto positions = make_positions(1600);
  const geom::spatial_grid grid(positions, pm.max_range());
  std::size_t i = 0;
  std::vector<geom::point_index> out;
  for (auto _ : state) {
    out.clear();
    grid.query_radius_into(positions[i++ % positions.size()], pm.max_range(),
                           geom::spatial_grid::npos, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SpatialGridQuery);

}  // namespace

/// BENCHMARK_MAIN with one addition: an explicit `--out PATH` (or
/// `--out=PATH`) flag for the JSON record — shorthand for
/// --benchmark_out=PATH --benchmark_out_format=json, so callers like
/// CI never depend on the process cwd. Without an output flag the run
/// writes no file (no more stray BENCH_scaling.json in the cwd).
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  std::string out_path;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (i > 0 && std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string out_flag = "--benchmark_out=" + out_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!out_path.empty()) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
