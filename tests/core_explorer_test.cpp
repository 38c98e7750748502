#include "core/explorer.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "pareto_oracle.h"
#include "pruning/variant_generator.h"

namespace ccperf::core {
namespace {

class ExplorerTest : public ::testing::Test {
 protected:
  ExplorerTest()
      : catalog_(cloud::InstanceCatalog::AwsEc2()),
        sim_(catalog_),
        profile_(cloud::CaffeNetProfile()),
        accuracy_(CalibratedAccuracyModel::CaffeNet()),
        explorer_(sim_, profile_, accuracy_) {}

  std::vector<pruning::PrunePlan> Variants(std::size_t count) {
    Rng rng(42);
    return pruning::RandomVariants(
        {"conv1", "conv2", "conv3", "conv4", "conv5"}, count, 0.6, 0.1, rng);
  }

  std::vector<cloud::ResourceConfig> P2Configs(int max_per_type) {
    return cloud::EnumerateConfigs(catalog_.Category("p2"), max_per_type);
  }

  cloud::InstanceCatalog catalog_;
  cloud::CloudSimulator sim_;
  cloud::ModelProfile profile_;
  CalibratedAccuracyModel accuracy_;
  ConfigSpaceExplorer explorer_;
};

TEST_F(ExplorerTest, EvaluatesFullCross) {
  const auto variants = Variants(10);
  const auto configs = P2Configs(2);  // 26 configs
  const ExplorationResult result =
      explorer_.Explore(variants, configs, 100000);
  EXPECT_EQ(result.evaluated, 10u * 26u);
  // No constraints -> everything feasible.
  EXPECT_EQ(result.feasible.size(), result.evaluated);
}

TEST_F(ExplorerTest, DeadlineFiltersSlowConfigs) {
  const auto variants = Variants(5);
  const auto configs = P2Configs(2);
  const ExplorationResult all = explorer_.Explore(variants, configs, 1000000);
  double min_time = 1e18, max_time = 0.0;
  for (const auto& p : all.feasible) {
    min_time = std::min(min_time, p.seconds.value());
    max_time = std::max(max_time, p.seconds.value());
  }
  const Seconds deadline((min_time + max_time) / 2.0);
  const ExplorationResult filtered =
      explorer_.Explore(variants, configs, 1000000, deadline);
  EXPECT_LT(filtered.feasible.size(), all.feasible.size());
  EXPECT_GT(filtered.feasible.size(), 0u);
  for (const auto& p : filtered.feasible) {
    EXPECT_LE(p.seconds, deadline);
  }
}

TEST_F(ExplorerTest, BudgetFiltersExpensiveConfigs) {
  const auto variants = Variants(5);
  const auto configs = P2Configs(2);
  const ExplorationResult all = explorer_.Explore(variants, configs, 1000000);
  double min_cost = 1e18;
  for (const auto& p : all.feasible) {
    min_cost = std::min(min_cost, p.cost_usd.value());
  }
  const ExplorationResult filtered = explorer_.Explore(
      variants, configs, 1000000,
      Seconds(std::numeric_limits<double>::infinity()), Usd(min_cost * 1.5));
  EXPECT_GT(filtered.feasible.size(), 0u);
  for (const auto& p : filtered.feasible) {
    EXPECT_LE(p.cost_usd.value(), min_cost * 1.5);
  }
}

TEST_F(ExplorerTest, ParetoFrontierSmallAndOptimal) {
  // The paper finds ~5 Pareto-optimal configurations among thousands.
  const auto variants = Variants(30);
  const auto configs = P2Configs(3);  // 63 configs
  const ExplorationResult result = explorer_.Explore(
      variants, configs, 1000000, /*deadline_s=*/Seconds(10.0 * 3600.0));
  EXPECT_GT(result.feasible.size(), 500u);

  const auto frontier = TimeAccuracyFrontier(result.feasible, true);
  EXPECT_GE(frontier.size(), 2u);
  EXPECT_LT(frontier.size(), 30u);
  // Frontier points are mutually non-dominated in (time, top5).
  for (std::size_t a : frontier) {
    for (std::size_t b : frontier) {
      if (a == b) continue;
      EXPECT_FALSE(Dominates(result.feasible[a].seconds.value(),
                             result.feasible[a].top5,
                             result.feasible[b].seconds.value(),
                             result.feasible[b].top5));
    }
  }
}

TEST_F(ExplorerTest, CostFrontierUsesCostAxis) {
  const auto variants = Variants(10);
  const auto configs = P2Configs(2);
  const ExplorationResult result =
      explorer_.Explore(variants, configs, 500000, Seconds(1e18), Usd(300.0));
  const auto frontier = CostAccuracyFrontier(result.feasible, false);
  ASSERT_GE(frontier.size(), 1u);
  // The top frontier point carries the max feasible Top-1.
  double best_top1 = 0.0;
  for (const auto& p : result.feasible) best_top1 = std::max(best_top1, p.top1);
  EXPECT_DOUBLE_EQ(result.feasible[frontier.front()].top1, best_top1);
}

TEST_F(ExplorerTest, ParetoSelectionSavesSubstantially) {
  // The paper's headline: picking the Pareto-optimal configuration at the
  // highest accuracy saves ~50 % time over the worst same-accuracy config.
  const auto variants = Variants(30);
  const auto configs = P2Configs(3);
  const ExplorationResult result = explorer_.Explore(
      variants, configs, 1000000, Seconds(10.0 * 3600.0));
  const auto frontier = TimeAccuracyFrontier(result.feasible, true);
  ASSERT_FALSE(frontier.empty());
  const ExploredPoint& best = result.feasible[frontier.front()];
  double worst_same_accuracy = best.seconds.value();
  for (const auto& p : result.feasible) {
    if (p.top5 == best.top5) {
      worst_same_accuracy = std::max(worst_same_accuracy, p.seconds.value());
    }
  }
  EXPECT_LT(best.seconds.value(), worst_same_accuracy * 0.6);
}

TEST_F(ExplorerTest, RejectsEmptySpace) {
  EXPECT_THROW(explorer_.Explore({}, P2Configs(1), 100), CheckError);
  EXPECT_THROW(explorer_.Explore(Variants(2), {}, 100), CheckError);
  EXPECT_THROW(explorer_.Explore(Variants(2), P2Configs(1), 0), CheckError);
}

}  // namespace
}  // namespace ccperf::core
