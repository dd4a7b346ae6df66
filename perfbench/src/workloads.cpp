#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "algo/pipeline.h"
#include "api/api.h"
#include "api/dispatch.h"
#include "api/json.h"
#include "api/wire.h"
#include "geom/spatial_order.h"
#include "graph/euclidean.h"
#include "graph/interference.h"
#include "graph/metrics.h"
#include "graph/robustness.h"
#include "net/service.h"
#include "util/parallel.h"

namespace perfbench {
namespace {

using namespace cbtc;
namespace json = api::json;

/// Compute threads every workload may use (the machine's 4 cores).
constexpr unsigned compute_threads = 4;

/// How many times a run sets its workload up (build inputs, bind
/// shards, warm up); setup_s is the median.
constexpr int setup_repeats = 2;

// ---- per-layer metric catalog ---------------------------------------

/// The static-pipeline spans in engine::run's phase order.
const std::vector<std::string>& static_spans() {
  static const std::vector<std::string> names = {
      "geom.deploy",      "graph.max_power_graph", "geom.spatial_order",  "algo.growth",
      "algo.optimizations", "algo.invariants",     "graph.power_stretch", "graph.hop_stretch",
      "graph.interference", "graph.articulation"};
  return names;
}

bool is_metric_span(const std::string& name) {
  return name == "graph.power_stretch" || name == "graph.hop_stretch" ||
         name == "graph.interference" || name == "graph.articulation";
}

/// Every per-layer metric, zero-initialized: a traced run reports all
/// of them, and a zero means the layer does no such work on that
/// workload (see the README's interaction list).
metric_set per_layer_catalog() {
  metric_set m;
  for (const std::string& s : static_spans()) m.set(s + "_s", 0.0, "s");
  for (const std::string& s : static_spans()) m.set(s + ".speedup", 0.0, "x");
  for (const char* c : {"graph.max_power_edges", "algo.removed_edges", "algo.topology_edges",
                        "graph.stretch_pairs"}) {
    m.set(c, 0.0, "count");
  }
  m.set("radio.link_power_ns", 0.0, "ns");
  m.set("graph.metrics_share", 0.0, "frac");
  m.set("api.residual_s", 0.0, "s");
  for (const char* s : {"sim.buildout_s", "sim.mobility_s", "sim.crash_s"}) m.set(s, 0.0, "s");
  m.set("sim.regions_speedup", 0.0, "x");
  for (const char* c : {"sim.broadcasts", "sim.unicasts", "sim.deliveries", "sim.drops",
                        "proto.beacons", "proto.joins", "proto.leaves", "proto.achanges",
                        "proto.regrows", "proto.prunes", "graph.disruptions",
                        "graph.field_disruptions", "graph.unrepaired"}) {
    m.set(c, 0.0, "count");
  }
  m.set("sim.us_per_delivery", 0.0, "us");
  m.set("api.batch_inprocess_s", 0.0, "s");
  m.set("net.overhead_s", 0.0, "s");
  m.set("api.wire_encode_us", 0.0, "us");
  m.set("api.wire_decode_us", 0.0, "us");
  m.set("api.wire_bytes", 0.0, "B");
  for (const char* c :
       {"net.requests", "net.requeued_blocks", "net.duplicate_partials", "net.connection_failures"}) {
    m.set(c, 0.0, "count");
  }
  m.set("api.instance_ms", 0.0, "ms");
  m.set("util.cpu_s", 0.0, "s");
  m.set("util.parallel_efficiency", 0.0, "frac");
  m.set("trace.coverage", 0.0, "frac");
  m.set("trace.overhead_s", 0.0, "s");
  m.set("failed_frac", 0.0, "frac");
  return m;
}

// ---- output checks ---------------------------------------------------

/// Outcome of checking one iteration's output.
struct check_result {
  std::uint64_t digest{0};
  std::vector<std::string> errors;
  /// Observed values of the recorded quantities (the record format).
  json::jv observed = json::jv::object();

  void fail(std::string what) { errors.push_back(std::move(what)); }
  void observe(const char* key, double v) { observed.add(key, json::jv::of(v)); }
};

/// Expected values recorded with the benchmark, keyed workload -> seed.
class expectations {
 public:
  explicit expectations(const std::string& path) {
    if (path.empty()) return;
    std::ifstream in(path);
    if (!in) throw std::invalid_argument("cannot read expectations file " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    // An empty file (e.g. /dev/null while recording) holds no records.
    if (ss.str().find_first_not_of(" \t\r\n") != std::string::npos) {
      doc_ = json::parse_document(ss.str());
    }
  }

  /// The record for (workload, seed), or null when none was recorded.
  [[nodiscard]] const json::jv* find(const std::string& workload, std::uint64_t seed) const {
    const json::jv* w = json::get(doc_, workload);
    return w == nullptr ? nullptr : json::get(*w, std::to_string(seed));
  }

 private:
  json::jv doc_ = json::jv::object();
};

/// Compares every recorded key against the observed value. Counts must
/// match exactly; real values to 1e-9 relative (room for a reordered
/// floating-point sum, none for a different result).
void compare_expected(const json::jv& expected, check_result& r) {
  for (const auto& [key, want] : expected.fields) {
    const json::jv* got = json::get(r.observed, key);
    if (got == nullptr) {
      r.fail("expected value '" + key + "' was not produced");
      continue;
    }
    if (std::abs(got->num - want.num) > 1e-9 * std::max(1.0, std::abs(want.num))) {
      std::ostringstream os;
      os.precision(17);
      os << key << " = " << got->num << ", expected " << want.num;
      r.fail(os.str());
    }
  }
}

/// One-line rendering of a flat object of numbers (the record format).
std::string to_json(const json::jv& v) {
  std::string s = "{";
  for (const auto& [key, value] : v.fields) {
    s += (s.size() > 1 ? ", \"" : "\"") + key + "\": " + value.raw;
  }
  return s + "}";
}

void digest_graph(digest& d, const graph::undirected_graph& g) {
  d.add(static_cast<std::uint64_t>(g.num_nodes()));
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    const auto nb = g.neighbors(static_cast<graph::node_id>(u));
    d.add(static_cast<std::uint64_t>(nb.size()));
    for (const graph::node_id v : nb) d.add(static_cast<std::uint64_t>(v));
  }
}

void digest_channel(digest& d, const sim::medium_stats& c) {
  d.add(c.broadcasts);
  d.add(c.unicasts);
  d.add(c.deliveries);
  d.add(c.drops);
  d.add(c.tx_energy);
}

// ---- the workload interface -----------------------------------------

struct trace_context {
  tracer& tr;
  metric_set& m;
  double run_s;  ///< median untraced iteration time
  outcome& out;  ///< traced-run checks count here too
};

class workload {
 public:
  virtual ~workload() = default;

  /// Builds the services the timed iterations need (the static and
  /// dynamic engines take the spec and seed directly).
  virtual void setup() {}
  /// Releases what setup() built.
  virtual void teardown() {}
  /// One timed operation; returns its wall seconds.
  virtual double iterate() = 0;
  /// Checks the output of the last iterate().
  [[nodiscard]] virtual check_result check() = 0;
  /// Operations one iteration counts for (failed_frac's denominator).
  [[nodiscard]] virtual std::uint64_t ops_per_iteration() const { return 1; }
  /// Checks made once after the timed loop, outside the timed region.
  virtual std::vector<std::string> final_checks() { return {}; }
  /// Traced replay through the layers; fills per-layer metrics.
  virtual void trace(trace_context& ctx) = 0;
};

// ---- static pipeline replay -----------------------------------------

/// One replay of engine::run's phases with per-phase spans.
struct replay_result {
  std::vector<std::pair<std::string, double>> spans;  ///< engine phase order
  double wall_s{0.0};
  std::size_t max_power_edges{0};
  std::size_t removed_edges{0};
  std::size_t topology_edges{0};
  std::size_t stretch_pairs{0};
  double link_power_ns{0.0};
  bool invariants_ok{false};
  double power_stretch{1.0};
  double hop_stretch{1.0};

  [[nodiscard]] double span(const std::string& name) const {
    for (const auto& [n, s] : spans) {
      if (n == name) return s;
    }
    return 0.0;
  }
  [[nodiscard]] double total() const {
    double t = 0.0;
    for (const auto& p : spans) t += p.second;
    return t;
  }
};

/// The topology over permuted labels mapped back to original labels
/// (node perm[k] owns node k's neighbors, mapped through perm).
graph::undirected_graph relabel_back(const graph::undirected_graph& g,
                                     const std::vector<std::uint32_t>& perm) {
  const std::size_t n = g.num_nodes();
  std::vector<std::size_t> off(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k) off[perm[k] + 1] = g.degree(static_cast<graph::node_id>(k));
  for (std::size_t u = 0; u < n; ++u) off[u + 1] += off[u];
  std::vector<graph::node_id> flat(off[n]);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t u = perm[k];
    std::size_t w = off[u];
    for (const graph::node_id v : g.neighbors(static_cast<graph::node_id>(k))) flat[w++] = perm[v];
    std::sort(flat.begin() + static_cast<std::ptrdiff_t>(off[u]),
              flat.begin() + static_cast<std::ptrdiff_t>(off[u + 1]));
  }
  return graph::undirected_graph::from_csr(std::move(off), std::move(flat));
}

/// Replays engine::run_internal for an oracle scenario through the
/// public functions of geom, graph, radio and algo, in the engine's
/// order and (above relabel_min_nodes) in its Morton label space, at
/// pool width `width`. Each phase is one span under a root span.
replay_result replay_static(const api::scenario_spec& base, std::uint64_t seed, unsigned width,
                            tracer& tr, bool time_link_power) {
  api::scenario_spec spec = base;
  spec.cbtc.intra_threads = width;
  replay_result out;
  const clock::time_point t0 = clock::now();
  const int root = tr.begin("api.run.replay");
  const auto phase = [&](const char* name, const auto& f) {
    out.spans.emplace_back(name, tr.time(name, f));
  };

  std::vector<geom::vec2> positions;
  std::optional<radio::link_model> link;
  phase("geom.deploy", [&] {
    positions = spec.make_positions(seed);
    link.emplace(spec.link(seed));
  });
  util::thread_pool pool(width);
  graph::undirected_graph gr;
  phase("graph.max_power_graph", [&] { gr = graph::build_max_power_graph(positions, *link, pool); });

  const std::size_t n = positions.size();
  const bool relabel = n >= spec.cbtc.relabel_min_nodes && n > 1 && link->max_range() > 0.0;
  std::vector<std::uint32_t> perm;
  std::vector<geom::vec2> rpos;
  std::optional<radio::link_model> rlink;
  if (relabel) {
    phase("geom.spatial_order", [&] {
      perm = geom::spatial_order(positions, link->max_range());
      rpos.resize(n);
      for (std::size_t k = 0; k < n; ++k) rpos[k] = positions[perm[k]];
      rlink.emplace(link->relabeled(perm));
    });
  }
  const std::span<const geom::vec2> gpos = relabel ? std::span<const geom::vec2>(rpos) : positions;
  const radio::link_model& glink = relabel ? *rlink : *link;

  algo::cbtc_result grown;
  phase("algo.growth", [&] { grown = algo::run_cbtc(gpos, glink, spec.cbtc); });
  algo::topology_result topo;
  phase("algo.optimizations",
        [&] { topo = algo::apply_optimizations(std::move(grown), gpos, glink, spec.opts); });
  const graph::undirected_graph topology =
      relabel ? relabel_back(topo.topology, perm) : std::move(topo.topology);

  algo::invariant_report inv;
  phase("algo.invariants", [&] { inv = algo::check_invariants(topology, positions, *link, gr, pool); });
  if (spec.metrics.stretch) {
    graph::stretch_stats ps;
    graph::stretch_stats hs;
    phase("graph.power_stretch", [&] {
      ps = graph::power_stretch(topology, gr, positions, link->power().exponent(),
                                spec.metrics.stretch_samples);
    });
    phase("graph.hop_stretch",
          [&] { hs = graph::hop_stretch(topology, gr, spec.metrics.stretch_samples); });
    out.power_stretch = ps.mean;
    out.hop_stretch = hs.mean;
    out.stretch_pairs = ps.pairs + hs.pairs;
  }
  if (spec.metrics.interference) {
    phase("graph.interference", [&] { (void)graph::topology_interference(topology, positions); });
  }
  if (spec.metrics.robustness) {
    phase("graph.articulation", [&] { (void)graph::articulation_points(topology); });
  }
  tr.end(root);

  out.max_power_edges = gr.num_edges();
  out.removed_edges = topo.removed_edges;
  out.topology_edges = topology.num_edges();
  out.invariants_ok = inv.ok();
  out.wall_s = seconds_since(t0);

  if (time_link_power && gr.num_edges() > 0) {
    // Mean cost of one required_power call over the instance's own
    // G_R edges (its own span, outside the replay root).
    double sink = 0.0;
    const double secs = tr.time("radio.link_power", [&] {
      for (std::size_t u = 0; u < n; ++u) {
        const auto uid = static_cast<graph::node_id>(u);
        for (const graph::node_id v : gr.neighbors(uid)) {
          if (v > uid) sink += link->required_power(uid, v, positions[u], positions[v]);
        }
      }
    });
    out.link_power_ns = secs * 1e9 / static_cast<double>(gr.num_edges());
    if (!std::isfinite(sink)) out.link_power_ns = 0.0;
  }
  return out;
}

/// Checks a replay against the engine's own report of the same input:
/// the replay must reproduce what it claims to time.
void check_replay(const replay_result& r, const api::run_report& ref, bool stretch,
                  std::vector<std::string>& errors) {
  if (r.topology_edges != ref.edges || r.max_power_edges != ref.max_power_edges ||
      r.removed_edges != ref.removed_edges || r.invariants_ok != ref.invariants.ok()) {
    errors.push_back("replay diverged from engine::run (edges " + std::to_string(r.topology_edges) +
                     " vs " + std::to_string(ref.edges) + ")");
  }
  if (stretch && (r.power_stretch != ref.power_stretch || r.hop_stretch != ref.hop_stretch)) {
    errors.push_back("replay stretch diverged from engine::run");
  }
}

void record_errors(outcome& out, const std::vector<std::string>& errors, std::uint64_t ops) {
  out.attempted += ops;
  if (errors.empty()) return;
  out.failed += ops;
  for (const std::string& e : errors) out.notes.push_back("FAILED: " + e);
}

// ---- static workloads -----------------------------------------------

class static_workload final : public workload {
 public:
  static_workload(api::scenario_spec spec, std::uint64_t seed, const json::jv* expected)
      : spec_(std::move(spec)), seed_(seed), expected_(expected) {}

  double iterate() override {
    report_ = {};
    const clock::time_point t0 = clock::now();
    report_ = eng_.run(spec_, seed_);
    return seconds_since(t0);
  }

  check_result check() override {
    check_result r;
    const api::run_report& rep = report_;
    digest d;
    digest_graph(d, rep.topology);
    for (const double p : rep.node_powers) d.add(p);
    for (const double x : {rep.avg_degree, rep.avg_radius, rep.max_radius, rep.avg_power,
                           rep.power_stretch, rep.power_stretch_max, rep.hop_stretch,
                           rep.hop_stretch_max, rep.interference_mean}) {
      d.add(x);
    }
    for (const std::size_t c : {rep.edges, rep.max_power_edges, rep.boundary_nodes,
                                rep.redundant_edges, rep.removed_edges, rep.interference_max,
                                rep.cut_vertices}) {
      d.add(static_cast<std::uint64_t>(c));
    }
    d.add(rep.invariants.ok());
    r.digest = d.value();

    if (!rep.invariants.subgraph_of_max_power) r.fail("topology is not a subgraph of G_R");
    if (!rep.invariants.connectivity_preserved) r.fail("connectivity not preserved");
    if (!rep.invariants.radii_within_max_range) r.fail("a radius exceeds the maximum range");
    r.observe("edges", static_cast<double>(rep.edges));
    r.observe("max_power_edges", static_cast<double>(rep.max_power_edges));
    r.observe("removed_edges", static_cast<double>(rep.removed_edges));
    // With metrics off the report still carries the default 1.0: only
    // a run that computed stretch observes (and checks) it.
    if (spec_.metrics.stretch) {
      if (!(rep.power_stretch >= 1.0 && std::isfinite(rep.power_stretch))) {
        r.fail("power stretch is not a finite value >= 1");
      }
      r.observe("power_stretch", rep.power_stretch);
      r.observe("hop_stretch", rep.hop_stretch);
    }
    if (expected_ != nullptr) compare_expected(*expected_, r);
    return r;
  }

  void trace(trace_context& ctx) override {
    // Width-4 replay (the measured phase split), then width 1.
    ctx.tr.set_iteration(1);
    const replay_result wide = replay_static(spec_, seed_, compute_threads, ctx.tr, true);
    ctx.tr.set_iteration(2);
    const replay_result narrow = replay_static(spec_, seed_, 1, ctx.tr, false);
    std::vector<std::string> errors;
    check_replay(wide, report_, spec_.metrics.stretch, errors);
    check_replay(narrow, report_, spec_.metrics.stretch, errors);
    record_errors(ctx.out, errors, 1);

    double metric_s = 0.0;
    for (const auto& [name, s] : wide.spans) {
      ctx.m.set(name + "_s", s, "s");
      const double s1 = narrow.span(name);
      ctx.m.set(name + ".speedup", s > 0.0 ? s1 / s : 0.0, "x");
      if (is_metric_span(name)) metric_s += s;
    }
    ctx.m.set("graph.max_power_edges", static_cast<double>(wide.max_power_edges), "count");
    ctx.m.set("algo.removed_edges", static_cast<double>(wide.removed_edges), "count");
    ctx.m.set("algo.topology_edges", static_cast<double>(wide.topology_edges), "count");
    ctx.m.set("graph.stretch_pairs", static_cast<double>(wide.stretch_pairs), "count");
    ctx.m.set("radio.link_power_ns", wide.link_power_ns, "ns");
    ctx.m.set("graph.metrics_share", metric_s / ctx.run_s, "frac");
    ctx.m.set("api.residual_s", ctx.run_s - wide.total(), "s");
    ctx.m.set("trace.coverage", wide.total() / ctx.run_s, "frac");
    ctx.m.set("trace.overhead_s", wide.wall_s - ctx.run_s, "s");
  }

 private:
  api::scenario_spec spec_;
  std::uint64_t seed_;
  const json::jv* expected_;
  api::engine eng_;
  api::run_report report_;
};

// ---- dynamic workload -----------------------------------------------

class dynamic_workload final : public workload {
 public:
  dynamic_workload(api::scenario_spec spec, api::sim_spec sim, std::uint64_t seed,
                   const json::jv* expected)
      : spec_(std::move(spec)), sim_(std::move(sim)), seed_(seed), expected_(expected) {}

  double iterate() override {
    report_ = {};
    const clock::time_point t0 = clock::now();
    report_ = eng_.run_dynamic(spec_, sim_, seed_);
    return seconds_since(t0);
  }

  check_result check() override { return check_report(report_, expected_); }

  void trace(trace_context& ctx) override {
    ctx.tr.set_iteration(1);
    const int root = ctx.tr.begin("api.run_dynamic.variants");
    api::sim_spec buildout = sim_;
    buildout.horizon = sim_.settle;
    buildout.mobility = {};
    buildout.failures = {};
    api::sim_spec no_crash = sim_;
    no_crash.failures = {};
    api::scenario_spec serial_spec = spec_;
    serial_spec.cbtc.intra_threads = 1;
    api::sim_spec serial_sim = sim_;
    serial_sim.partition.regions = 1;

    api::dynamic_report full;
    std::vector<std::string> errors;
    // Build-out is still in progress at `settle`, so only the variants
    // that run to the horizon must end connected.
    const auto variant = [&](const char* name, const api::scenario_spec& spec,
                             const api::sim_spec& sim, api::dynamic_report* keep) {
      api::dynamic_report rep;
      const double s = ctx.tr.time(name, [&] { rep = eng_.run_dynamic(spec, sim, seed_); });
      if (sim.horizon > sim.settle) {
        for (std::string& e : check_report(rep, nullptr).errors) errors.push_back(name + (": " + e));
      }
      if (keep != nullptr) *keep = std::move(rep);
      return s;
    };
    const double t_build = variant("sim.buildout", spec_, buildout, nullptr);
    const double t_no_crash = variant("sim.no_crash", spec_, no_crash, nullptr);
    const double t_full = variant("sim.full", spec_, sim_, &full);
    const double t_serial = variant("sim.serial_1x1", serial_spec, serial_sim, nullptr);
    ctx.tr.end(root);
    if (check_report(full, nullptr).digest != check_report(report_, nullptr).digest) {
      errors.push_back("traced run differs bitwise from the timed iterations");
    }
    record_errors(ctx.out, errors, 1);

    ctx.m.set("sim.buildout_s", t_build, "s");
    ctx.m.set("sim.mobility_s", t_no_crash - t_build, "s");
    ctx.m.set("sim.crash_s", t_full - t_no_crash, "s");
    ctx.m.set("sim.regions_speedup", t_serial / t_full, "x");
    const auto count = [&](const char* name, std::uint64_t v) {
      ctx.m.set(name, static_cast<double>(v), "count");
    };
    count("sim.broadcasts", full.channel.broadcasts);
    count("sim.unicasts", full.channel.unicasts);
    count("sim.deliveries", full.channel.deliveries);
    count("sim.drops", full.channel.drops);
    count("proto.beacons", full.beacons);
    count("proto.joins", full.joins);
    count("proto.leaves", full.leaves);
    count("proto.achanges", full.achanges);
    count("proto.regrows", full.regrows);
    count("proto.prunes", full.prunes);
    count("graph.disruptions", full.disruptions);
    count("graph.field_disruptions", full.field_disruptions);
    count("graph.unrepaired", full.unrepaired);
    if (full.channel.deliveries > 0) {
      ctx.m.set("sim.us_per_delivery",
                ctx.run_s * 1e6 / static_cast<double>(full.channel.deliveries), "us");
    }
    // The three variants split the full run into phases; the full run
    // alone is the traced counterpart of one iteration.
    ctx.m.set("trace.coverage", t_full / ctx.run_s, "frac");
    ctx.m.set("trace.overhead_s", t_full - ctx.run_s, "s");
  }

 private:
  static check_result check_report(const api::dynamic_report& rep, const json::jv* expected) {
    check_result r;
    digest d;
    d.add(rep.initial_connectivity_ok);
    d.add(static_cast<std::uint64_t>(rep.initial_edges));
    d.add(rep.final_connectivity_ok);
    d.add(static_cast<std::uint64_t>(rep.live_nodes));
    digest_graph(d, rep.final_topology);
    for (const geom::vec2& p : rep.final_positions) {
      d.add(p.x);
      d.add(p.y);
    }
    for (const bool u : rep.up) d.add(u);
    for (const std::uint64_t c :
         {rep.joins, rep.leaves, rep.achanges, rep.regrows, rep.prunes, rep.beacons}) {
      d.add(c);
    }
    digest_channel(d, rep.channel);
    for (const std::size_t c : {rep.disruptions, rep.unrepaired, rep.field_disruptions}) {
      d.add(static_cast<std::uint64_t>(c));
    }
    for (const double x : {rep.repair_latency_mean, rep.repair_latency_max, rep.field_downtime,
                           rep.time_to_partition}) {
      d.add(x);
    }
    d.add(rep.partitioned);
    for (const api::dynamic_sample& s : rep.samples) {
      d.add(s.t);
      d.add(static_cast<std::uint64_t>(s.live_nodes));
      d.add(static_cast<std::uint64_t>(s.edges));
      d.add(s.avg_degree);
      d.add(s.avg_radius);
      d.add(s.connectivity_ok);
      d.add(s.field_connected);
    }
    r.digest = d.value();

    if (!rep.final_connectivity_ok) r.fail("final topology does not preserve connectivity");
    r.observe("final_edges", static_cast<double>(rep.final_topology.num_edges()));
    r.observe("live_nodes", static_cast<double>(rep.live_nodes));
    r.observe("deliveries", static_cast<double>(rep.channel.deliveries));
    if (expected != nullptr) compare_expected(*expected, r);
    return r;
  }

  api::scenario_spec spec_;
  api::sim_spec sim_;
  std::uint64_t seed_;
  const json::jv* expected_;
  api::engine eng_;
  api::dynamic_report report_;
};

// ---- dispatched paper sweep -----------------------------------------

std::string encode_aggregate(const api::batch_report& r) {
  return api::wire::encode_block_partial(0, r);
}

class sweep_workload final : public workload {
 public:
  sweep_workload(api::scenario_spec spec, api::seed_range seeds, std::size_t drop_connections,
                 const json::jv* expected)
      : spec_(std::move(spec)),
        seeds_(seeds),
        drop_connections_(drop_connections),
        expected_(expected) {}

  ~sweep_workload() override { teardown(); }
  sweep_workload(const sweep_workload&) = delete;
  sweep_workload& operator=(const sweep_workload&) = delete;

  void setup() override {
    api::dispatch_config cfg;
    cfg.shard_threads = shard_threads;
    for (int i = 0; i < shards; ++i) {
      net::serve_config sc;
      sc.threads = shard_threads;
      if (i == 0 && drop_connections_ > 0) {
        sc.drop_connections = drop_connections_;
        sc.drop_after_partials = 1;
      }
      servers_.push_back(std::make_unique<net::scenario_server>(sc));
      cfg.endpoints.push_back({"127.0.0.1", servers_.back()->port()});
      serving_.emplace_back([s = servers_.back().get()] { s->run(); });
    }
    dispatcher_.emplace(std::move(cfg));
  }

  void teardown() override {
    for (auto& s : servers_) s->stop();
    for (std::thread& t : serving_) t.join();
    serving_.clear();
    servers_.clear();
    dispatcher_.reset();
  }

  double iterate() override {
    aggregate_ = {};
    const clock::time_point t0 = clock::now();
    aggregate_ = dispatcher_->run_batch(spec_, seeds_);
    const double s = seconds_since(t0);
    const api::dispatch_stats& st = dispatcher_->stats();
    ++dispatches_;
    totals_.requests += st.requests;
    totals_.requeued_blocks += st.requeued_blocks;
    totals_.duplicate_partials += st.duplicate_partials;
    totals_.connection_failures += st.connection_failures;
    return s;
  }

  check_result check() override {
    check_result r;
    const std::string enc = encode_aggregate(aggregate_);
    digest d;
    d.add(enc);
    r.digest = d.value();
    if (aggregate_.runs != seeds_.count) {
      r.fail("batch ran " + std::to_string(aggregate_.runs) + " of " +
             std::to_string(seeds_.count) + " seeds");
    }
    if (aggregate_.connectivity_failures != 0) {
      r.fail(std::to_string(aggregate_.connectivity_failures) +
             " instances did not preserve connectivity");
    }
    r.observe("runs", static_cast<double>(aggregate_.runs));
    r.observe("connectivity_failures", static_cast<double>(aggregate_.connectivity_failures));
    r.observe("edges_sum", aggregate_.edges.sum());
    r.observe("power_stretch_sum", aggregate_.power_stretch.sum());
    if (expected_ != nullptr) compare_expected(*expected_, r);
    return r;
  }

  [[nodiscard]] std::uint64_t ops_per_iteration() const override {
    return api::engine::num_batch_blocks(seeds_);
  }

  std::vector<std::string> final_checks() override {
    inprocess_ = eng_.run_batch(spec_, seeds_, compute_threads);
    return compare_inprocess();
  }

  void trace(trace_context& ctx) override {
    std::vector<std::string> errors;
    ctx.tr.set_iteration(1);
    const double t_dispatch = ctx.tr.time("net.dispatch", [&] { (void)iterate(); });
    const check_result traced = check();
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());

    ctx.tr.set_iteration(2);
    api::batch_report inproc;
    const double t_inproc =
        ctx.tr.time("api.batch_inprocess", [&] { inproc = eng_.run_batch(spec_, seeds_, compute_threads); });
    inprocess_ = std::move(inproc);
    const std::vector<std::string> cmp = compare_inprocess();
    errors.insert(errors.end(), cmp.begin(), cmp.end());

    // The batch's block partials, replayed through the wire codec.
    ctx.tr.set_iteration(3);
    std::vector<api::batch_report> partials(api::engine::num_batch_blocks(seeds_));
    ctx.tr.time("api.batch_blocks", [&] {
      eng_.run_batch_blocks(spec_, seeds_, {0, partials.size()}, compute_threads,
                            [&](std::uint64_t b, const api::batch_report& p) { partials[b] = p; });
    });
    std::vector<std::string> frames(partials.size());
    const double t_encode = ctx.tr.time("api.wire_encode", [&] {
      for (std::size_t b = 0; b < partials.size(); ++b) {
        frames[b] = api::wire::encode_block_partial(b, partials[b]);
      }
    });
    api::batch_report merged;
    const double t_decode = ctx.tr.time("api.wire_decode", [&] {
      for (const std::string& f : frames) {
        api::batch_report p;
        (void)api::wire::decode_block_partial(api::wire::decode_message(f), p);
        merged.merge(p);
      }
    });
    if (encode_aggregate(merged) != encode_aggregate(*inprocess_)) {
      errors.push_back("wire round trip of the block partials changed the aggregate");
    }
    double bytes = 0.0;
    for (const std::string& f : frames) bytes += static_cast<double>(f.size());
    const double blocks = static_cast<double>(std::max<std::size_t>(1, partials.size()));

    // Single 100-node instances: engine::run time and its phase split.
    ctx.tr.set_iteration(4);
    const std::uint64_t instances = std::min<std::uint64_t>(64, seeds_.count);
    std::vector<double> instance_s;
    replay_result sum;
    for (std::uint64_t i = 0; i < instances; ++i) {
      const std::uint64_t seed = seeds_.first + i;
      api::run_report rep;
      instance_s.push_back(ctx.tr.time("api.run", [&] { rep = eng_.run(spec_, seed); }));
      const replay_result r = replay_static(spec_, seed, 1, ctx.tr, true);
      check_replay(r, rep, spec_.metrics.stretch, errors);
      // Every instance replays the same phase sequence.
      if (sum.spans.empty()) {
        sum.spans = r.spans;
      } else {
        for (std::size_t p = 0; p < r.spans.size(); ++p) sum.spans[p].second += r.spans[p].second;
      }
      sum.max_power_edges += r.max_power_edges;
      sum.removed_edges += r.removed_edges;
      sum.topology_edges += r.topology_edges;
      sum.stretch_pairs += r.stretch_pairs;
      sum.link_power_ns += r.link_power_ns;
    }
    record_errors(ctx.out, errors, ops_per_iteration());

    const double k = static_cast<double>(instances);
    double instance_total = 0.0;
    for (const double s : instance_s) instance_total += s;
    double metric_s = 0.0;
    for (const auto& [name, s] : sum.spans) {
      ctx.m.set(name + "_s", s / k, "s");
      if (is_metric_span(name)) metric_s += s;
    }
    ctx.m.set("graph.max_power_edges", static_cast<double>(sum.max_power_edges) / k, "count");
    ctx.m.set("algo.removed_edges", static_cast<double>(sum.removed_edges) / k, "count");
    ctx.m.set("algo.topology_edges", static_cast<double>(sum.topology_edges) / k, "count");
    ctx.m.set("graph.stretch_pairs", static_cast<double>(sum.stretch_pairs) / k, "count");
    ctx.m.set("radio.link_power_ns", sum.link_power_ns / k, "ns");
    ctx.m.set("graph.metrics_share", metric_s / instance_total, "frac");
    ctx.m.set("api.residual_s", (instance_total - sum.total()) / k, "s");
    ctx.m.set("api.instance_ms", median(instance_s) * 1e3, "ms");

    ctx.m.set("api.batch_inprocess_s", t_inproc, "s");
    ctx.m.set("net.overhead_s", ctx.run_s - t_inproc, "s");
    ctx.m.set("api.wire_encode_us", t_encode * 1e6 / blocks, "us");
    ctx.m.set("api.wire_decode_us", t_decode * 1e6 / blocks, "us");
    ctx.m.set("api.wire_bytes", bytes / blocks, "B");
    const double d = static_cast<double>(std::max<std::uint64_t>(1, dispatches_));
    ctx.m.set("net.requests", static_cast<double>(totals_.requests) / d, "count");
    ctx.m.set("net.requeued_blocks", static_cast<double>(totals_.requeued_blocks) / d, "count");
    ctx.m.set("net.duplicate_partials", static_cast<double>(totals_.duplicate_partials) / d,
              "count");
    ctx.m.set("net.connection_failures", static_cast<double>(totals_.connection_failures) / d,
              "count");
    ctx.m.set("trace.coverage", (t_inproc + t_encode + t_decode) / ctx.run_s, "frac");
    ctx.m.set("trace.overhead_s", t_dispatch - ctx.run_s, "s");
  }

 private:
  static constexpr int shards = 2;
  static constexpr unsigned shard_threads = 2;

  std::vector<std::string> compare_inprocess() const {
    if (encode_aggregate(*inprocess_) == encode_aggregate(aggregate_)) return {};
    return {"dispatched batch_report differs bitwise from in-process engine::run_batch"};
  }

  api::scenario_spec spec_;
  api::seed_range seeds_;
  std::size_t drop_connections_;
  const json::jv* expected_;
  api::engine eng_;
  std::vector<std::unique_ptr<net::scenario_server>> servers_;
  std::vector<std::thread> serving_;
  std::optional<api::shard_dispatcher> dispatcher_;
  api::batch_report aggregate_;
  std::optional<api::batch_report> inprocess_;
  api::dispatch_stats totals_;
  std::uint64_t dispatches_{0};
};

// ---- workload definitions -------------------------------------------

/// Region side that keeps `nodes` at the density of `base` nodes in a
/// `base_side` square.
double scaled_side(double base_side, std::size_t base, std::size_t nodes) {
  return base_side * std::sqrt(static_cast<double>(nodes) / static_cast<double>(base));
}

std::unique_ptr<workload> make_workload(const options& opt, const json::jv* expected) {
  const std::uint64_t seed = opt.seed;
  if (opt.workload == "static_100k") {
    api::scenario_spec s = api::get_scenario("paper_table1");
    const std::size_t n = opt.toy ? 3000 : 100000;
    s.deploy.region_side = scaled_side(s.deploy.region_side, s.deploy.nodes, n);
    s.deploy.nodes = n;
    s.cbtc.intra_threads = compute_threads;
    if (opt.toy) s.cbtc.relabel_min_nodes = 0;  // keep the Morton path in the toy run
    return std::make_unique<static_workload>(std::move(s), seed, expected);
  }
  if (opt.workload == "shadowed_100k_lean") {
    api::scenario_spec s = api::get_scenario("shadowed_field");
    const std::size_t n = opt.toy ? 3000 : 100000;
    s.deploy.region_side = scaled_side(s.deploy.region_side, s.deploy.nodes, n);
    s.deploy.nodes = n;
    s.metrics = {.stretch = false, .interference = false, .robustness = false};
    s.cbtc.intra_threads = compute_threads;
    if (opt.toy) s.cbtc.relabel_min_nodes = 0;
    return std::make_unique<static_workload>(std::move(s), seed, expected);
  }
  if (opt.workload == "dynamic_churn_20k") {
    const std::size_t n = opt.toy ? 1500 : 20000;
    api::scenario_spec s;
    s.name = "dynamic_churn";
    s.deploy.nodes = n;
    s.deploy.region_side = scaled_side(1500.0, 100, n);
    s.method = api::method_spec::protocol();
    s.protocol.agent.round_timeout = 0.5;
    s.protocol.channel.base_delay = 0.01;
    s.cbtc.intra_threads = compute_threads;
    s.metrics = {.stretch = false, .interference = false, .robustness = false};
    api::sim_spec sim;
    sim.horizon = 6.0;
    sim.settle = 3.0;
    sim.sample_every = 1.5;
    sim.mobility = {.kind = api::mobility_kind::random_waypoint,
                    .min_speed = 2.0,
                    .max_speed = 8.0,
                    .tick = 0.5,
                    .start = 3.0};
    sim.failures.random_crashes = n / 100;
    sim.failures.window_begin = 3.5;
    sim.failures.window_end = 5.5;
    sim.partition.regions = 16;
    return std::make_unique<dynamic_workload>(std::move(s), std::move(sim), seed, expected);
  }
  if (opt.workload == "paper_sweep") {
    const std::uint64_t count = opt.toy ? 256 : 4096;
    return std::make_unique<sweep_workload>(api::get_scenario("paper_table1"),
                                            api::seed_range{seed * count, count},
                                            opt.drop_connections, expected);
  }
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

void write_layer_table(const std::string& path, const std::string& workload, std::uint64_t seed,
                       const metric_set& m) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os.precision(9);
  os << "# per-layer metrics: workload " << workload << ", seed " << seed << "\n";
  os << "# name\tvalue\tunit\n";
  for (const metric_set::entry& e : m.entries()) {
    os << e.name << "\t" << e.value << "\t" << e.unit << "\n";
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"static_100k", "shadowed_100k_lean",
                                                 "dynamic_churn_20k", "paper_sweep"};
  return names;
}

outcome run_workload(const options& opt) {
  if (std::find(workload_names().begin(), workload_names().end(), opt.workload) ==
      workload_names().end()) {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  const expectations expect(opt.expect_path);
  // Toy-size runs (the harness self-test) have their own records.
  const json::jv* expected = expect.find(opt.toy ? opt.workload + ".toy" : opt.workload, opt.seed);
  std::unique_ptr<workload> w = make_workload(opt, expected);
  outcome out;
  if (expected == nullptr) {
    out.notes.push_back("no recorded expectation for seed " + std::to_string(opt.seed) +
                        ": structural checks and bitwise repeatability only");
  }
  const std::uint64_t ops = w->ops_per_iteration();

  std::uint64_t reference = 0;
  bool have_reference = false;
  const auto run_checked = [&](const char* what) {
    double secs = 0.0;
    std::vector<std::string> errors;
    try {
      secs = w->iterate();
      check_result r = w->check();
      errors = std::move(r.errors);
      if (!have_reference) {
        reference = r.digest;
        have_reference = true;
        out.record = to_json(r.observed);
      } else if (r.digest != reference) {
        errors.push_back(std::string(what) + " report differs bitwise from the first iteration");
      }
    } catch (const std::exception& e) {
      errors.push_back(std::string(what) + " threw: " + e.what());
    }
    record_errors(out, errors, ops);
    return secs;
  };

  // Set-up: inputs, services and one untimed warm-up iteration, done
  // setup_repeats times (the last one stays up for the timed loop).
  std::vector<double> setup_times;
  for (int i = 0; i < setup_repeats; ++i) {
    if (i > 0) w->teardown();
    const clock::time_point t0 = clock::now();
    w->setup();
    (void)run_checked("warm-up");
    setup_times.push_back(seconds_since(t0));
  }

  std::vector<double> run_times;
  std::vector<double> cpu_times;
  const clock::time_point loop0 = clock::now();
  while (run_times.empty() || seconds_since(loop0) < opt.seconds) {
    const double cpu0 = process_cpu_s();
    run_times.push_back(run_checked("iteration"));
    cpu_times.push_back(process_cpu_s() - cpu0);
  }
  // The traced replay makes the same once-only checks itself.
  if (!opt.trace) {
    for (const std::string& e : w->final_checks()) record_errors(out, {e}, ops);
  }

  const double run_s = median(run_times);
  if (!opt.trace) {
    out.metrics.set("run_s", run_s, "s");
    out.metrics.set("setup_s", median(setup_times), "s");
    out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    out.metrics = per_layer_catalog();
    tracer tr;
    trace_context ctx{tr, out.metrics, run_s, out};
    try {
      w->trace(ctx);
    } catch (const std::exception& e) {
      record_errors(out, {std::string("traced replay threw: ") + e.what()}, ops);
    }
    const double cpu_s = median(cpu_times);
    out.metrics.set("util.cpu_s", cpu_s, "s");
    out.metrics.set("util.parallel_efficiency", cpu_s / (run_s * compute_threads), "frac");
    std::filesystem::create_directories(opt.out_dir);
    const std::string stem = opt.out_dir + "/" + opt.workload + "_seed" + std::to_string(opt.seed);
    tr.write_chrome(stem + ".trace.json");
    write_layer_table(stem + ".layers.tsv", opt.workload, opt.seed, out.metrics);
    out.notes.push_back("trace written to " + stem + ".trace.json, layer table to " + stem +
                        ".layers.tsv");
  }
  w->teardown();

  std::ostringstream samples;
  samples.precision(4);
  samples << "samples: " << run_times.size() << " timed iterations (s:";
  for (const double t : run_times) samples << " " << t;
  samples << "), " << setup_times.size() << " set-ups (s:";
  for (const double t : setup_times) samples << " " << t;
  samples << ")";
  out.notes.push_back(samples.str());
  const double failed_frac =
      out.attempted == 0 ? 0.0
                         : static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  if (opt.trace) {
    out.metrics.set("failed_frac", failed_frac, "frac");
  } else {
    out.metrics.set("ok_frac", 1.0 - failed_frac, "frac");
  }
  return out;
}

}  // namespace perfbench
