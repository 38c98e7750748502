// Generators for families of prune plans ("degrees of pruning").
#pragma once

#include <vector>

#include "pruning/prune_plan.h"

namespace ccperf {
class Rng;
}

namespace ccperf::pruning {

/// Cartesian product of per-layer ratio grids (paper Fig. 11: conv1 x conv2).
/// `layers[i]` sweeps over `ratio_grids[i]`.
std::vector<PrunePlan> CartesianSweep(
    const std::vector<std::string>& layers,
    const std::vector<std::vector<double>>& ratio_grids,
    PrunerFamily family = PrunerFamily::kL1Filter);

/// `count` random plans over `layers`, ratios uniform on [0, max_ratio]
/// quantized to `step` — used for the paper's "60 versions of Caffenet
/// pruned in different degrees spanning a wide accuracy range".
std::vector<PrunePlan> RandomVariants(
    const std::vector<std::string>& layers, std::size_t count,
    double max_ratio, double step, Rng& rng,
    PrunerFamily family = PrunerFamily::kL1Filter);

}  // namespace ccperf::pruning
