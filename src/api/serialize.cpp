#include "api/serialize.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/json.h"
#include "api/serialize_detail.h"

namespace cbtc::api {

using json::check_keys;
using json::get;
using json::get_bool;
using json::get_count;
using json::get_num;
using json::get_str;
using json::get_u32;
using json::get_u64;
using json::jv;
using json::require;

std::string lifetime_policy_name(lifetime_policy p) {
  switch (p) {
    case lifetime_policy::plain_cbtc: return "plain_cbtc";
    case lifetime_policy::energy_balanced: return "energy_balanced";
    case lifetime_policy::cooperative_adaptation: return "cooperative_adaptation";
  }
  return "plain_cbtc";
}

lifetime_policy parse_lifetime_policy(const std::string& name) {
  if (name == "plain_cbtc" || name == "plain") return lifetime_policy::plain_cbtc;
  if (name == "energy_balanced" || name == "balanced") return lifetime_policy::energy_balanced;
  if (name == "cooperative_adaptation" || name == "cooperative") {
    return lifetime_policy::cooperative_adaptation;
  }
  throw std::invalid_argument("unknown lifetime policy '" + name + "'");
}

namespace {

// ---- enum names ----------------------------------------------------

std::string deployment_name(deployment_kind k) {
  switch (k) {
    case deployment_kind::uniform: return "uniform";
    case deployment_kind::cluster: return "cluster";
    case deployment_kind::grid: return "grid";
    case deployment_kind::fixed: return "fixed";
    case deployment_kind::ring: return "ring";
    case deployment_kind::tree: return "tree";
    case deployment_kind::star: return "star";
  }
  return "uniform";
}

deployment_kind parse_deployment(const std::string& name) {
  if (name == "uniform") return deployment_kind::uniform;
  if (name == "cluster") return deployment_kind::cluster;
  if (name == "grid") return deployment_kind::grid;
  if (name == "fixed") return deployment_kind::fixed;
  if (name == "ring") return deployment_kind::ring;
  if (name == "tree") return deployment_kind::tree;
  if (name == "star") return deployment_kind::star;
  throw std::invalid_argument("scenario JSON: unknown deployment kind '" + name + "'");
}

std::string propagation_name(radio::propagation_kind k) {
  switch (k) {
    case radio::propagation_kind::isotropic: return "isotropic";
    case radio::propagation_kind::lognormal_shadowing: return "lognormal_shadowing";
    case radio::propagation_kind::obstacle_field: return "obstacle_field";
  }
  return "isotropic";
}

radio::propagation_kind parse_propagation_kind(const std::string& name) {
  if (name == "isotropic") return radio::propagation_kind::isotropic;
  if (name == "lognormal_shadowing" || name == "shadowing") {
    return radio::propagation_kind::lognormal_shadowing;
  }
  if (name == "obstacle_field" || name == "obstacles") {
    return radio::propagation_kind::obstacle_field;
  }
  throw std::invalid_argument("scenario JSON: unknown propagation kind '" + name + "'");
}

std::string mobility_name(mobility_kind k) {
  switch (k) {
    case mobility_kind::none: return "none";
    case mobility_kind::random_waypoint: return "random_waypoint";
    case mobility_kind::bouncing: return "bouncing";
  }
  return "none";
}

mobility_kind parse_mobility(const std::string& name) {
  if (name == "none") return mobility_kind::none;
  if (name == "random_waypoint") return mobility_kind::random_waypoint;
  if (name == "bouncing") return mobility_kind::bouncing;
  throw std::invalid_argument("scenario JSON: unknown mobility kind '" + name + "'");
}

// ---- scenario_spec components <-> jv -------------------------------

jv deployment_to_jv(const deployment_spec& d) {
  jv o = jv::object();
  o.add("kind", jv::of(deployment_name(d.kind)));
  o.add("nodes", jv::of_u64(d.nodes));
  o.add("region_side", jv::of(d.region_side));
  o.add("clusters", jv::of_u64(d.clusters));
  o.add("cluster_sigma", jv::of(d.cluster_sigma));
  o.add("grid_jitter", jv::of(d.grid_jitter));
  // Structured-layout knobs: emitted only for the kinds that consume
  // them, so pre-existing files keep their exact shape.
  if (d.kind == deployment_kind::tree) o.add("tree_branching", jv::of_u64(d.tree_branching));
  if (d.kind == deployment_kind::star) o.add("star_arms", jv::of_u64(d.star_arms));
  if (d.kind == deployment_kind::fixed) {
    jv pts = jv::array();
    for (const geom::vec2& p : d.fixed) {
      jv pair = jv::array();
      pair.items.push_back(jv::of(p.x));
      pair.items.push_back(jv::of(p.y));
      pts.items.push_back(std::move(pair));
    }
    o.add("positions", std::move(pts));
  }
  return o;
}

deployment_spec deployment_from_jv(const jv& o) {
  check_keys(o, "deployment", {"kind", "nodes", "region_side", "clusters", "cluster_sigma",
                               "grid_jitter", "tree_branching", "star_arms", "positions"});
  deployment_spec d;
  d.kind = parse_deployment(get_str(o, "kind", "uniform"));
  d.nodes = get_count(o, "nodes", d.nodes);
  require(d.nodes <= deployment_spec::max_nodes,
          "deployment.nodes: at most " + std::to_string(deployment_spec::max_nodes) + ", got " +
              std::to_string(d.nodes));
  d.region_side = get_num(o, "region_side", d.region_side);
  d.clusters = get_count(o, "clusters", d.clusters);
  d.cluster_sigma = get_num(o, "cluster_sigma", d.cluster_sigma);
  d.grid_jitter = get_num(o, "grid_jitter", d.grid_jitter);
  d.tree_branching = get_count(o, "tree_branching", d.tree_branching);
  d.star_arms = get_count(o, "star_arms", d.star_arms);
  if (const jv* pts = get(o, "positions")) {
    require(d.kind == deployment_kind::fixed,
            "positions are only valid for deployment kind \"fixed\"");
    require(pts->k == jv::kind::array, "positions must be an array of [x, y] pairs");
    for (const jv& pair : pts->items) {
      require(pair.k == jv::kind::array && pair.items.size() == 2 &&
                  pair.items[0].k == jv::kind::number && pair.items[1].k == jv::kind::number,
              "each position must be an [x, y] number pair");
      d.fixed.push_back({pair.items[0].num, pair.items[1].num});
    }
    if (d.kind == deployment_kind::fixed) d.nodes = d.fixed.size();
  }
  require(d.kind != deployment_kind::fixed || !d.fixed.empty(),
          "fixed deployment needs a non-empty positions array");
  return d;
}

/// Emits only the fields the kind consumes; isotropic propagation is
/// the default and is omitted entirely by the caller, so existing
/// scenario files keep their exact shape.
jv propagation_to_jv(const propagation_spec& p) {
  jv o = jv::object();
  o.add("kind", jv::of(propagation_name(p.kind)));
  if (p.kind == radio::propagation_kind::lognormal_shadowing) {
    o.add("sigma_db", jv::of(p.sigma_db));
    o.add("clamp_db", jv::of(p.clamp_db));
    o.add("seed", jv::of_u64(p.seed));
  }
  if (p.kind == radio::propagation_kind::obstacle_field) {
    jv obs = jv::array();
    for (const radio::obstacle& ob : p.obstacles) {
      jv e = jv::object();
      jv box = jv::array();
      box.items.push_back(jv::of(ob.box.min.x));
      box.items.push_back(jv::of(ob.box.min.y));
      box.items.push_back(jv::of(ob.box.max.x));
      box.items.push_back(jv::of(ob.box.max.y));
      e.add("box", std::move(box));
      e.add("loss_db", jv::of(ob.loss_db));
      obs.items.push_back(std::move(e));
    }
    o.add("obstacles", std::move(obs));
  }
  return o;
}

propagation_spec propagation_from_jv(const jv& o) {
  require(o.k == jv::kind::object, "radio.propagation must be an object");
  check_keys(o, "radio.propagation", {"kind", "sigma_db", "clamp_db", "seed", "obstacles"});
  propagation_spec p;
  p.kind = parse_propagation_kind(get_str(o, "kind", "isotropic"));
  // Kind-foreign keys are rejected, not dropped: a stray sigma_db on
  // an isotropic block almost certainly means the kind is wrong, and
  // silently running without it would also vanish on re-serialization.
  const bool shadowing_kind = p.kind == radio::propagation_kind::lognormal_shadowing;
  for (const std::string_view key : {"sigma_db", "clamp_db", "seed"}) {
    require(shadowing_kind || get(o, key) == nullptr,
            std::string(key) + " is only valid for propagation kind \"lognormal_shadowing\"");
  }
  p.sigma_db = get_num(o, "sigma_db", p.sigma_db);
  p.clamp_db = get_num(o, "clamp_db", p.clamp_db);
  p.seed = get_u64(o, "seed", p.seed);
  require(p.sigma_db >= 0.0, "radio.propagation.sigma_db must be non-negative");
  require(p.clamp_db >= 0.0, "radio.propagation.clamp_db must be non-negative");
  if (const jv* obs = get(o, "obstacles")) {
    require(p.kind == radio::propagation_kind::obstacle_field,
            "obstacles are only valid for propagation kind \"obstacle_field\"");
    require(obs->k == jv::kind::array, "radio.propagation.obstacles must be an array");
    for (const jv& e : obs->items) {
      require(e.k == jv::kind::object, "each obstacle must be an object");
      check_keys(e, "obstacle", {"box", "loss_db"});
      const jv* box = get(e, "box");
      require(box != nullptr && box->k == jv::kind::array && box->items.size() == 4,
              "obstacle.box must be an [x0, y0, x1, y1] array");
      for (const jv& c : box->items) {
        require(c.k == jv::kind::number, "obstacle.box entries must be numbers");
      }
      radio::obstacle ob;
      ob.box = {{box->items[0].num, box->items[1].num}, {box->items[2].num, box->items[3].num}};
      require(ob.box.min.x <= ob.box.max.x && ob.box.min.y <= ob.box.max.y,
              "obstacle.box must satisfy x0 <= x1 and y0 <= y1");
      ob.loss_db = get_num(e, "loss_db", ob.loss_db);
      require(ob.loss_db > 0.0, "obstacle.loss_db must be positive");
      p.obstacles.push_back(ob);
    }
  }
  require(p.kind != radio::propagation_kind::obstacle_field || !p.obstacles.empty(),
          "propagation kind \"obstacle_field\" needs a non-empty obstacles array");
  return p;
}

jv method_to_jv(const method_spec& m) {
  jv o = jv::object();
  o.add("name", jv::of(method_name(m)));
  if (m.k == method_spec::kind::baseline && m.baseline == baseline_kind::yao) {
    o.add("yao_cones", jv::of_u64(m.yao_cones));
  }
  if (m.k == method_spec::kind::baseline && m.baseline == baseline_kind::knn) {
    o.add("knn_k", jv::of_u64(m.knn_k));
  }
  return o;
}

method_spec method_from_jv(const jv& v) {
  if (v.k == jv::kind::string) return parse_method(v.str);
  require(v.k == jv::kind::object, "method must be a name or an object");
  check_keys(v, "method", {"name", "yao_cones", "knn_k"});
  method_spec m = parse_method(get_str(v, "name", "oracle"));
  m.yao_cones = get_count(v, "yao_cones", m.yao_cones);
  require(m.yao_cones <= method_spec::max_yao_cones,
          "method.yao_cones: at most " + std::to_string(method_spec::max_yao_cones) + ", got " +
              std::to_string(m.yao_cones));
  m.knn_k = get_count(v, "knn_k", m.knn_k);
  return m;
}

}  // namespace

// ---- full specs <-> jv (shared with the wire layer) -----------------

namespace detail {

jv scenario_to_jv(const scenario_spec& s) {
  jv o = jv::object();
  o.add("name", jv::of(s.name));
  o.add("deployment", deployment_to_jv(s.deploy));
  {
    jv rad = jv::object();
    rad.add("path_loss_exponent", jv::of(s.radio.path_loss_exponent));
    rad.add("max_range", jv::of(s.radio.max_range));
    if (s.radio.propagation.kind != radio::propagation_kind::isotropic) {
      rad.add("propagation", propagation_to_jv(s.radio.propagation));
    }
    o.add("radio", std::move(rad));
  }
  o.add("method", method_to_jv(s.method));
  {
    jv cbtc = jv::object();
    cbtc.add("alpha", jv::of(s.cbtc.alpha));
    cbtc.add("mode", jv::of(std::string(
                         s.cbtc.mode == algo::growth_mode::continuous ? "continuous" : "discrete")));
    cbtc.add("initial_power", jv::of(s.cbtc.initial_power));
    cbtc.add("increase_factor", jv::of(s.cbtc.increase_factor));
    cbtc.add("intra_threads", jv::of_u64(s.cbtc.intra_threads));
    cbtc.add("relabel_min_nodes", jv::of_u64(s.cbtc.relabel_min_nodes));
    o.add("cbtc", std::move(cbtc));
  }
  {
    jv opts = jv::object();
    opts.add("shrink_back", jv::of(s.opts.shrink_back));
    opts.add("asymmetric_removal", jv::of(s.opts.asymmetric_removal));
    opts.add("pairwise_removal", jv::of(s.opts.pairwise_removal));
    opts.add("gain_aware", jv::of(s.opts.gain_aware));
    o.add("optimizations", std::move(opts));
  }
  {
    jv proto = jv::object();
    proto.add("round_timeout", jv::of(s.protocol.agent.round_timeout));
    proto.add("reply_margin", jv::of(s.protocol.agent.reply_margin));
    proto.add("retries_per_level", jv::of_u64(s.protocol.agent.retries_per_level));
    proto.add("direction_noise", jv::of(s.protocol.direction_noise));
    proto.add("max_events", jv::of_u64(s.protocol.max_events));
    jv ch = jv::object();
    ch.add("drop_prob", jv::of(s.protocol.channel.drop_prob));
    ch.add("dup_prob", jv::of(s.protocol.channel.dup_prob));
    ch.add("base_delay", jv::of(s.protocol.channel.base_delay));
    ch.add("delay_per_unit", jv::of(s.protocol.channel.delay_per_unit));
    ch.add("jitter_max", jv::of(s.protocol.channel.jitter_max));
    proto.add("channel", std::move(ch));
    o.add("protocol", std::move(proto));
  }
  o.add("base_seed", jv::of_u64(s.base_seed));
  {
    jv metrics = jv::object();
    metrics.add("stretch", jv::of(s.metrics.stretch));
    metrics.add("stretch_samples", jv::of_u64(s.metrics.stretch_samples));
    metrics.add("interference", jv::of(s.metrics.interference));
    metrics.add("robustness", jv::of(s.metrics.robustness));
    o.add("metrics", std::move(metrics));
  }
  {
    jv post = jv::object();
    post.add("bridge_augmentation", jv::of(s.post.bridge_augmentation));
    o.add("post", std::move(post));
  }
  return o;
}

scenario_spec scenario_from_jv(const jv& o) {
  check_keys(o, "scenario", {"name", "deployment", "radio", "method", "cbtc", "optimizations",
                             "protocol", "base_seed", "metrics", "post"});
  scenario_spec s;
  s.name = get_str(o, "name", s.name);
  if (const jv* d = get(o, "deployment")) s.deploy = deployment_from_jv(*d);
  if (const jv* r = get(o, "radio")) {
    check_keys(*r, "radio", {"path_loss_exponent", "max_range", "propagation"});
    s.radio.path_loss_exponent = get_num(*r, "path_loss_exponent", s.radio.path_loss_exponent);
    s.radio.max_range = get_num(*r, "max_range", s.radio.max_range);
    if (const jv* p = get(*r, "propagation")) s.radio.propagation = propagation_from_jv(*p);
  }
  if (const jv* m = get(o, "method")) s.method = method_from_jv(*m);
  if (const jv* c = get(o, "cbtc")) {
    check_keys(*c, "cbtc", {"alpha", "mode", "initial_power", "increase_factor", "intra_threads",
                            "relabel_min_nodes"});
    s.cbtc.alpha = get_num(*c, "alpha", s.cbtc.alpha);
    const std::string mode = get_str(*c, "mode", "discrete");
    require(mode == "discrete" || mode == "continuous",
            "cbtc.mode must be \"discrete\" or \"continuous\"");
    s.cbtc.mode =
        mode == "continuous" ? algo::growth_mode::continuous : algo::growth_mode::discrete;
    s.cbtc.initial_power = get_num(*c, "initial_power", s.cbtc.initial_power);
    s.cbtc.increase_factor = get_num(*c, "increase_factor", s.cbtc.increase_factor);
    s.cbtc.intra_threads =
        static_cast<unsigned>(get_u64(*c, "intra_threads", s.cbtc.intra_threads));
    s.cbtc.relabel_min_nodes = get_count(*c, "relabel_min_nodes", s.cbtc.relabel_min_nodes);
  }
  if (const jv* opt = get(o, "optimizations")) {
    check_keys(*opt, "optimizations",
               {"shrink_back", "asymmetric_removal", "pairwise_removal", "gain_aware"});
    s.opts.shrink_back = get_bool(*opt, "shrink_back", s.opts.shrink_back);
    s.opts.asymmetric_removal = get_bool(*opt, "asymmetric_removal", s.opts.asymmetric_removal);
    s.opts.pairwise_removal = get_bool(*opt, "pairwise_removal", s.opts.pairwise_removal);
    s.opts.gain_aware = get_bool(*opt, "gain_aware", s.opts.gain_aware);
  }
  if (const jv* p = get(o, "protocol")) {
    check_keys(*p, "protocol", {"round_timeout", "reply_margin", "retries_per_level",
                                "direction_noise", "max_events", "channel"});
    s.protocol.agent.round_timeout = get_num(*p, "round_timeout", s.protocol.agent.round_timeout);
    s.protocol.agent.reply_margin = get_num(*p, "reply_margin", s.protocol.agent.reply_margin);
    s.protocol.agent.retries_per_level = static_cast<std::uint32_t>(
        get_u64(*p, "retries_per_level", s.protocol.agent.retries_per_level));
    s.protocol.direction_noise = get_num(*p, "direction_noise", s.protocol.direction_noise);
    s.protocol.max_events = get_count(*p, "max_events", s.protocol.max_events);
    if (const jv* ch = get(*p, "channel")) {
      check_keys(*ch, "protocol.channel",
                 {"drop_prob", "dup_prob", "base_delay", "delay_per_unit", "jitter_max"});
      s.protocol.channel.drop_prob = get_num(*ch, "drop_prob", s.protocol.channel.drop_prob);
      s.protocol.channel.dup_prob = get_num(*ch, "dup_prob", s.protocol.channel.dup_prob);
      s.protocol.channel.base_delay = get_num(*ch, "base_delay", s.protocol.channel.base_delay);
      s.protocol.channel.delay_per_unit =
          get_num(*ch, "delay_per_unit", s.protocol.channel.delay_per_unit);
      s.protocol.channel.jitter_max = get_num(*ch, "jitter_max", s.protocol.channel.jitter_max);
    }
  }
  s.base_seed = get_u64(o, "base_seed", s.base_seed);
  if (const jv* m = get(o, "metrics")) {
    check_keys(*m, "metrics", {"stretch", "stretch_samples", "interference", "robustness"});
    s.metrics.stretch = get_bool(*m, "stretch", s.metrics.stretch);
    s.metrics.stretch_samples = get_count(*m, "stretch_samples", s.metrics.stretch_samples);
    // Past the node cap every node is already a source: a larger value
    // means nothing more, so it is refused rather than carried.
    require(s.metrics.stretch_samples <= deployment_spec::max_nodes,
            "metrics.stretch_samples: at most " + std::to_string(deployment_spec::max_nodes) +
                ", got " + std::to_string(s.metrics.stretch_samples));
    s.metrics.interference = get_bool(*m, "interference", s.metrics.interference);
    s.metrics.robustness = get_bool(*m, "robustness", s.metrics.robustness);
  }
  if (const jv* p = get(o, "post")) {
    check_keys(*p, "post", {"bridge_augmentation"});
    s.post.bridge_augmentation = get_bool(*p, "bridge_augmentation", s.post.bridge_augmentation);
  }
  return s;
}

jv sim_to_jv(const sim_spec& s) {
  jv o = jv::object();
  o.add("horizon", jv::of(s.horizon));
  o.add("settle", jv::of(s.settle));
  o.add("sample_every", jv::of(s.sample_every));
  {
    jv b = jv::object();
    b.add("interval", jv::of(s.beacons.interval));
    b.add("miss_limit", jv::of_u64(s.beacons.miss_limit));
    b.add("achange_threshold", jv::of(s.beacons.achange_threshold));
    b.add("shrink_back", jv::of(s.beacons.shrink_back));
    o.add("beacons", std::move(b));
  }
  {
    jv m = jv::object();
    m.add("kind", jv::of(mobility_name(s.mobility.kind)));
    m.add("min_speed", jv::of(s.mobility.min_speed));
    m.add("max_speed", jv::of(s.mobility.max_speed));
    m.add("pause", jv::of(s.mobility.pause));
    m.add("tick", jv::of(s.mobility.tick));
    m.add("start", jv::of(s.mobility.start));
    m.add("until", jv::of(s.mobility.until));
    o.add("mobility", std::move(m));
  }
  {
    jv f = jv::object();
    f.add("random_crashes", jv::of_u64(s.failures.random_crashes));
    jv window = jv::array();
    window.items.push_back(jv::of(s.failures.window_begin));
    window.items.push_back(jv::of(s.failures.window_end));
    f.add("window", std::move(window));
    jv events = jv::array();
    for (const failure_event& e : s.failures.events) {
      jv ev = jv::object();
      ev.add("node", jv::of_u64(e.node));
      ev.add("time", jv::of(e.time));
      ev.add("restart", jv::of(e.restart));
      events.items.push_back(std::move(ev));
    }
    f.add("events", std::move(events));
    o.add("failures", std::move(f));
  }
  // Partition knobs: emitted only when non-default, so every spec
  // saved before the partitioned engine round-trips unchanged.
  if (s.partition.regions != 0 || s.partition.min_nodes != partition_spec{}.min_nodes) {
    jv part = jv::object();
    part.add("regions", jv::of_u64(s.partition.regions));
    part.add("min_nodes", jv::of_u64(s.partition.min_nodes));
    o.add("partition", std::move(part));
  }
  // Traffic block: same conditional-emission pattern (period 0 = off).
  if (s.traffic.enabled()) {
    jv t = jv::object();
    t.add("period", jv::of(s.traffic.period));
    t.add("sink", jv::of_u64(s.traffic.sink));
    t.add("start", jv::of(s.traffic.start));
    t.add("until", jv::of(s.traffic.until));
    t.add("service_time", jv::of(s.traffic.service_time));
    t.add("route_refresh", jv::of(s.traffic.route_refresh));
    t.add("queue_capacity", jv::of_u64(s.traffic.queue_capacity));
    o.add("traffic", std::move(t));
  }
  return o;
}

sim_spec sim_from_jv(const jv& o) {
  check_keys(o, "sim", {"horizon", "settle", "sample_every", "mirror_agent_tables", "beacons",
                        "mobility", "failures", "partition", "traffic"});
  sim_spec s;
  s.horizon = get_num(o, "horizon", s.horizon);
  s.settle = get_num(o, "settle", s.settle);
  s.sample_every = get_num(o, "sample_every", s.sample_every);
  // Retired toggle (the closure mirror is the only topology path now):
  // still type-checked so older files and frames parse, value ignored.
  (void)get_bool(o, "mirror_agent_tables", true);
  // run_dynamic samples at settle, then `for (t = settle + step;
  // t < horizon; t += step)`: bound that loop's trip count and make
  // every step advance the clock at the horizon's magnitude.
  const auto require_time = [](double t, const char* key) {
    require(std::isfinite(t) && t >= 0.0,
            std::string("sim.") + key + " must be finite and non-negative");
  };
  require_time(s.horizon, "horizon");
  require_time(s.settle, "settle");
  require_time(s.sample_every, "sample_every");
  if (s.sample_every > 0.0 && s.horizon > s.settle) {
    require((s.horizon - s.settle) / s.sample_every + 2.0 <=
                static_cast<double>(sim_spec::max_samples),
            "sim.sample_every would take more than " + std::to_string(sim_spec::max_samples) +
                " samples before the horizon");
    require(s.sample_every >=
                std::nextafter(s.horizon, std::numeric_limits<double>::infinity()) - s.horizon,
            "sim.sample_every is below the clock resolution at the horizon");
  }
  if (const jv* b = get(o, "beacons")) {
    check_keys(*b, "beacons", {"interval", "miss_limit", "achange_threshold", "shrink_back"});
    s.beacons.interval = get_num(*b, "interval", s.beacons.interval);
    s.beacons.miss_limit = get_u32(*b, "miss_limit", s.beacons.miss_limit);
    s.beacons.achange_threshold = get_num(*b, "achange_threshold", s.beacons.achange_threshold);
    s.beacons.shrink_back = get_bool(*b, "shrink_back", s.beacons.shrink_back);
  }
  if (const jv* m = get(o, "mobility")) {
    check_keys(*m, "mobility",
               {"kind", "min_speed", "max_speed", "pause", "tick", "start", "until"});
    s.mobility.kind = parse_mobility(get_str(*m, "kind", "none"));
    s.mobility.min_speed = get_num(*m, "min_speed", s.mobility.min_speed);
    s.mobility.max_speed = get_num(*m, "max_speed", s.mobility.max_speed);
    s.mobility.pause = get_num(*m, "pause", s.mobility.pause);
    s.mobility.tick = get_num(*m, "tick", s.mobility.tick);
    s.mobility.start = get_num(*m, "start", s.mobility.start);
    s.mobility.until = get_num(*m, "until", s.mobility.until);
  }
  if (const jv* part = get(o, "partition")) {
    check_keys(*part, "partition", {"regions", "min_nodes"});
    s.partition.regions = get_u32(*part, "regions", s.partition.regions);
    require(s.partition.regions <= partition_spec::max_regions,
            "sim.partition.regions must be at most " +
                std::to_string(partition_spec::max_regions));
    s.partition.min_nodes = get_u64(*part, "min_nodes", s.partition.min_nodes);
  }
  if (const jv* t = get(o, "traffic")) {
    check_keys(*t, "traffic", {"period", "sink", "start", "until", "service_time",
                               "route_refresh", "queue_capacity"});
    s.traffic.period = get_num(*t, "period", s.traffic.period);
    s.traffic.sink = get_u32(*t, "sink", s.traffic.sink);
    s.traffic.start = get_num(*t, "start", s.traffic.start);
    s.traffic.until = get_num(*t, "until", s.traffic.until);
    s.traffic.service_time = get_num(*t, "service_time", s.traffic.service_time);
    s.traffic.route_refresh = get_num(*t, "route_refresh", s.traffic.route_refresh);
    s.traffic.queue_capacity = get_count(*t, "queue_capacity", s.traffic.queue_capacity);
    require(s.traffic.period >= 0.0, "traffic.period must be non-negative");
    require(s.traffic.service_time > 0.0, "traffic.service_time must be positive");
    require(s.traffic.route_refresh > 0.0, "traffic.route_refresh must be positive");
    require(s.traffic.queue_capacity > 0, "traffic.queue_capacity must be positive");
  }
  if (const jv* f = get(o, "failures")) {
    check_keys(*f, "failures", {"random_crashes", "window", "events"});
    s.failures.random_crashes = get_count(*f, "random_crashes", s.failures.random_crashes);
    if (const jv* w = get(*f, "window")) {
      require(w->k == jv::kind::array && w->items.size() == 2 &&
                  w->items[0].k == jv::kind::number && w->items[1].k == jv::kind::number,
              "failures.window must be a [begin, end] number pair");
      s.failures.window_begin = w->items[0].num;
      s.failures.window_end = w->items[1].num;
    }
    if (const jv* evs = get(*f, "events")) {
      require(evs->k == jv::kind::array, "failures.events must be an array");
      for (const jv& ev : evs->items) {
        require(ev.k == jv::kind::object, "each failure event must be an object");
        check_keys(ev, "failure event", {"node", "time", "restart"});
        failure_event e;
        e.node = get_u32(ev, "node", 0);
        e.time = get_num(ev, "time", 0.0);
        e.restart = get_bool(ev, "restart", false);
        s.failures.events.push_back(e);
      }
    }
  }
  return s;
}

jv lifetime_to_jv(const lifetime_spec& s) {
  jv o = jv::object();
  o.add("battery_rounds", jv::of(s.battery_rounds));
  o.add("flows", jv::of_u64(s.flows));
  o.add("max_rounds", jv::of_u64(s.max_rounds));
  // Policy knobs: emitted only when non-default (conditional-emission
  // pattern), so pre-policy lifetime blocks keep their exact shape.
  if (s.policy != lifetime_policy::plain_cbtc) {
    o.add("policy", jv::of(lifetime_policy_name(s.policy)));
  }
  if (s.convergecast) o.add("convergecast", jv::of(s.convergecast));
  if (s.sink != 0) o.add("sink", jv::of_u64(s.sink));
  return o;
}

lifetime_spec lifetime_from_jv(const jv& o) {
  check_keys(o, "lifetime",
             {"battery_rounds", "flows", "max_rounds", "policy", "convergecast", "sink"});
  lifetime_spec s;
  s.battery_rounds = get_num(o, "battery_rounds", s.battery_rounds);
  s.flows = get_count(o, "flows", s.flows);
  s.max_rounds = get_count(o, "max_rounds", s.max_rounds);
  if (const jv* p = get(o, "policy")) {
    require(p->k == jv::kind::string, "lifetime.policy must be a string");
    s.policy = parse_lifetime_policy(p->str);
  }
  s.convergecast = get_bool(o, "convergecast", s.convergecast);
  s.sink = get_u32(o, "sink", s.sink);
  return s;
}

}  // namespace detail

std::string to_json(const scenario_file& file) {
  jv root = jv::object();
  root.add("scenario", detail::scenario_to_jv(file.scenario));
  if (file.sim) root.add("sim", detail::sim_to_jv(*file.sim));
  if (file.lifetime) root.add("lifetime", detail::lifetime_to_jv(*file.lifetime));
  std::ostringstream os;
  json::write_value(os, root, 0);
  os << '\n';
  return os.str();
}

std::string to_json(const scenario_spec& spec) {
  return to_json(scenario_file{.scenario = spec, .sim = std::nullopt});
}

scenario_file parse_scenario_json(std::string_view text) {
  try {
    const jv root = json::parse_document(text);
    require(root.k == jv::kind::object, "top level must be an object");

    scenario_file out;
    if (const jv* scenario = get(root, "scenario")) {
      check_keys(root, "top level", {"scenario", "sim", "lifetime"});
      require(scenario->k == jv::kind::object, "\"scenario\" must be an object");
      out.scenario = detail::scenario_from_jv(*scenario);
      if (const jv* sim = get(root, "sim")) {
        require(sim->k == jv::kind::object, "\"sim\" must be an object");
        out.sim = detail::sim_from_jv(*sim);
      }
      if (const jv* life = get(root, "lifetime")) {
        require(life->k == jv::kind::object, "\"lifetime\" must be an object");
        out.lifetime = detail::lifetime_from_jv(*life);
      }
    } else {
      // Bare scenario object (no "scenario"/"sim" wrapper).
      out.scenario = detail::scenario_from_jv(root);
    }
    return out;
  } catch (const std::invalid_argument& e) {
    // The generic json layer prefixes "JSON:"; scenario-file consumers
    // (and the CLI's documented error format) expect "scenario JSON:".
    const std::string_view what = e.what();
    if (what.rfind("JSON: ", 0) == 0) {
      throw std::invalid_argument("scenario " + std::string(what));
    }
    throw;
  }
}

scenario_file load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_scenario_json(buf.str());
}

void save_scenario_file(const std::string& path, const scenario_file& file) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write scenario file: " + path);
  out << to_json(file);
  if (!out) throw std::runtime_error("failed writing scenario file: " + path);
}

}  // namespace cbtc::api
