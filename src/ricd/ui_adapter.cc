#include "ricd/ui_adapter.h"

#include <utility>
#include <vector>

#include "graph/hot_items.h"

namespace ricd::core {

Result<baselines::DetectionResult> ScreenedDetector::Detect(
    const graph::BipartiteGraph& graph) {
  RICD_ASSIGN_OR_RETURN(baselines::DetectionResult result,
                        inner_->Detect(graph));

  RicdParams effective = params_;
  if (effective.t_hot == 0) {
    effective.t_hot = graph::DeriveHotThreshold(graph, graph::kHotClickMass);
  }

  // Community-size filter: groups that cannot hold a (k1, k2) attack are
  // noise for the screening stage.
  std::vector<graph::Group> sized;
  sized.reserve(result.groups.size());
  for (auto& g : result.groups) {
    if (g.users.size() >= effective.k1 && g.items.size() >= effective.k2) {
      sized.push_back(std::move(g));
    }
  }

  GroupScreener screener(graph, effective,
                         graph::ComputeHotFlags(graph, effective.t_hot));
  screener.Screen(sized, ScreeningMode::kFull);

  result.groups = std::move(sized);
  return result;
}

}  // namespace ricd::core
