#include "api/scenario.h"

#include <stdexcept>
#include <string>

#include "geom/random_points.h"
#include "geom/structured_points.h"

namespace cbtc::api {

deployment_spec deployment_spec::fixed_positions(std::vector<geom::vec2> positions) {
  deployment_spec d;
  d.kind = deployment_kind::fixed;
  d.nodes = positions.size();
  d.fixed = std::move(positions);
  return d;
}

std::vector<geom::vec2> scenario_spec::make_positions(std::uint64_t seed) const {
  if (deploy.nodes > deployment_spec::max_nodes) {
    throw std::invalid_argument("deployment.nodes: at most " +
                                std::to_string(deployment_spec::max_nodes) + ", got " +
                                std::to_string(deploy.nodes));
  }
  const geom::bbox box = geom::bbox::rect(deploy.region_side, deploy.region_side);
  const std::uint64_t s = base_seed + seed;
  switch (deploy.kind) {
    case deployment_kind::uniform:
      return geom::uniform_points(deploy.nodes, box, s);
    case deployment_kind::cluster:
      return geom::clustered_points(deploy.nodes, deploy.clusters, deploy.cluster_sigma, box, s);
    case deployment_kind::grid:
      if (deploy.grid_jitter <= 0.0) return geom::grid_points(deploy.nodes, box);
      return geom::jittered_grid_points(deploy.nodes, deploy.grid_jitter, box, s);
    case deployment_kind::fixed:
      return deploy.fixed;
    case deployment_kind::ring:
      return geom::ring_points(deploy.nodes, box);
    case deployment_kind::tree:
      return geom::tree_points(deploy.nodes, deploy.tree_branching, box);
    case deployment_kind::star:
      return geom::star_points(deploy.nodes, deploy.star_arms, box);
  }
  throw std::logic_error("scenario_spec: unknown deployment kind");
}

radio::power_model scenario_spec::power() const {
  return radio::power_model(radio.path_loss_exponent, radio.max_range);
}

radio::propagation_model propagation_spec::model(std::uint64_t instance_seed) const {
  switch (kind) {
    case radio::propagation_kind::isotropic:
      return radio::propagation_model::isotropic();
    case radio::propagation_kind::lognormal_shadowing:
      // The spec seed and the instance seed both feed the link hash;
      // the odd multiplier decorrelates the two streams.
      return radio::propagation_model::lognormal_shadowing(
          sigma_db, clamp_db, seed ^ (instance_seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL));
    case radio::propagation_kind::obstacle_field:
      return radio::propagation_model::obstacle_field(obstacles);
  }
  throw std::logic_error("propagation_spec: unknown propagation kind");
}

radio::link_model scenario_spec::link(std::uint64_t seed) const {
  return radio::link_model(power(), radio.propagation.model(base_seed + seed));
}

geom::bbox scenario_spec::region() const {
  if (deploy.kind != deployment_kind::fixed || deploy.fixed.empty()) {
    return geom::bbox::rect(deploy.region_side, deploy.region_side);
  }
  geom::bbox box{deploy.fixed.front(), deploy.fixed.front()};
  for (const geom::vec2& p : deploy.fixed) {
    box.min.x = std::min(box.min.x, p.x);
    box.min.y = std::min(box.min.y, p.y);
    box.max.x = std::max(box.max.x, p.x);
    box.max.y = std::max(box.max.y, p.y);
  }
  return box;
}

std::string method_name(const method_spec& m) {
  switch (m.k) {
    case method_spec::kind::oracle:
      return "oracle";
    case method_spec::kind::protocol:
      return "protocol";
    case method_spec::kind::stc:
      return "stc";
    case method_spec::kind::baseline:
      break;
  }
  switch (m.baseline) {
    case baseline_kind::euclidean_mst:
      return "mst";
    case baseline_kind::relative_neighborhood:
      return "rng";
    case baseline_kind::gabriel:
      return "gabriel";
    case baseline_kind::yao:
      return "yao";
    case baseline_kind::knn:
      return "knn";
    case baseline_kind::max_power:
      return "max-power";
  }
  return "unknown";
}

method_spec parse_method(const std::string& name) {
  if (name == "oracle") return method_spec::oracle();
  if (name == "protocol") return method_spec::protocol();
  if (name == "stc" || name == "sethu-gerety") return method_spec::stc();
  if (name == "mst" || name == "euclidean-mst") {
    return method_spec::of_baseline(baseline_kind::euclidean_mst);
  }
  if (name == "rng" || name == "relative-neighborhood") {
    return method_spec::of_baseline(baseline_kind::relative_neighborhood);
  }
  if (name == "gabriel") return method_spec::of_baseline(baseline_kind::gabriel);
  if (name == "yao") return method_spec::of_baseline(baseline_kind::yao);
  if (name == "knn") return method_spec::of_baseline(baseline_kind::knn);
  if (name == "max-power" || name == "none") {
    return method_spec::of_baseline(baseline_kind::max_power);
  }
  throw std::invalid_argument("unknown method: " + name);
}

}  // namespace cbtc::api
