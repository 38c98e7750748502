#include "core/explorer.h"

#include "cloud/density.h"
#include "cloud/variant_perf.h"
#include "common/check.h"
#include "core/pareto_sweep.h"

namespace ccperf::core {

ConfigSpaceExplorer::ConfigSpaceExplorer(const cloud::CloudSimulator& simulator,
                                         const cloud::ModelProfile& profile,
                                         const AccuracyModel& accuracy)
    : simulator_(simulator), profile_(profile), accuracy_(accuracy) {}

ExplorationResult ConfigSpaceExplorer::Explore(
    const std::vector<pruning::PrunePlan>& variants,
    const std::vector<cloud::ResourceConfig>& configs, std::int64_t images,
    Seconds deadline_s, Usd budget_usd) const {
  CCPERF_CHECK(!variants.empty() && !configs.empty(),
               "empty exploration space");
  CCPERF_CHECK(images >= 1, "need at least one image");

  ExplorationResult result;
  for (const auto& plan : variants) {
    const cloud::VariantPerf perf = cloud::ComputeVariantPerf(
        profile_, cloud::DensityFromPlan(profile_, plan), plan.Label());
    const AccuracyResult accuracy = accuracy_.Evaluate(plan);
    for (const auto& config : configs) {
      ++result.evaluated;
      const cloud::RunEstimate run = simulator_.Run(config, perf, images);
      if (run.seconds > deadline_s || run.cost_usd > budget_usd) continue;
      ExploredPoint point;
      point.variant_label = perf.label;
      point.plan = plan;
      point.config = config;
      point.seconds = run.seconds;
      point.cost_usd = run.cost_usd;
      point.top1 = accuracy.top1;
      point.top5 = accuracy.top5;
      result.feasible.push_back(std::move(point));
    }
  }
  return result;
}

namespace {
std::vector<std::size_t> Frontier(std::span<const ExploredPoint> points,
                                  bool use_top5, bool use_cost) {
  std::vector<double> objective(points.size());
  std::vector<double> accuracy(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    objective[i] =
        use_cost ? points[i].cost_usd.value() : points[i].seconds.value();
    accuracy[i] = use_top5 ? points[i].top5 : points[i].top1;
  }
  return SweepParetoFrontier(objective, accuracy);
}
}  // namespace

std::vector<std::size_t> TimeAccuracyFrontier(
    std::span<const ExploredPoint> points, bool use_top5) {
  return Frontier(points, use_top5, /*use_cost=*/false);
}

std::vector<std::size_t> CostAccuracyFrontier(
    std::span<const ExploredPoint> points, bool use_top5) {
  return Frontier(points, use_top5, /*use_cost=*/true);
}

}  // namespace ccperf::core
