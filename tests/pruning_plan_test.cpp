#include "pruning/prune_plan.h"

#include <gtest/gtest.h>

#include <set>

#include "common/check.h"
#include "common/rng.h"
#include "nn/model_zoo.h"
#include "pruning/sparsity.h"
#include "pruning/variant_generator.h"

namespace ccperf::pruning {
namespace {

TEST(PrunePlan, RatioForUnlistedLayerIsZero) {
  PrunePlan plan;
  plan.layer_ratios["conv1"] = 0.3;
  EXPECT_DOUBLE_EQ(plan.RatioFor("conv1"), 0.3);
  EXPECT_DOUBLE_EQ(plan.RatioFor("conv2"), 0.0);
}

TEST(PrunePlan, LabelFormatting) {
  PrunePlan plan;
  EXPECT_EQ(plan.Label(), "nonpruned");
  plan.layer_ratios["conv2"] = 0.5;
  plan.layer_ratios["conv1"] = 0.3;
  plan.layer_ratios["conv3"] = 0.0;  // zero entries are omitted
  EXPECT_EQ(plan.Label(), "conv1@30+conv2@50");
}

TEST(PrunePlan, IsNoop) {
  PrunePlan plan;
  EXPECT_TRUE(plan.IsNoop());
  plan.layer_ratios["x"] = 0.0;
  EXPECT_TRUE(plan.IsNoop());
  plan.layer_ratios["x"] = 0.1;
  EXPECT_FALSE(plan.IsNoop());
}

TEST(PrunePlan, MeanRatio) {
  PrunePlan plan;
  EXPECT_DOUBLE_EQ(plan.MeanRatio(), 0.0);
  plan.layer_ratios["a"] = 0.2;
  plan.layer_ratios["b"] = 0.6;
  EXPECT_DOUBLE_EQ(plan.MeanRatio(), 0.4);
}

TEST(PrunePlan, UniformPlanListsAllLayers) {
  const PrunePlan plan = UniformPlan({"a", "b", "c"}, 0.5);
  EXPECT_EQ(plan.layer_ratios.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.RatioFor("b"), 0.5);
}

TEST(ApplyPlan, PrunesNamedLayersOnly) {
  nn::ModelConfig config;
  config.weight_seed = 9;
  const nn::Network base = nn::BuildTinyCnn(config);
  PrunePlan plan;
  plan.family = PrunerFamily::kMagnitude;
  plan.layer_ratios["conv2"] = 0.5;
  const nn::Network variant = ApplyPlan(base, plan);
  EXPECT_NEAR(variant.FindLayer("conv2")->WeightDensity(), 0.5, 0.01);
  EXPECT_DOUBLE_EQ(variant.FindLayer("conv1")->WeightDensity(), 1.0);
  // Base untouched.
  EXPECT_DOUBLE_EQ(base.FindLayer("conv2")->WeightDensity(), 1.0);
}

TEST(ApplyPlan, UnknownLayerThrows) {
  nn::ModelConfig config;
  config.weight_seed = 9;
  nn::Network net = nn::BuildTinyCnn(config);
  PrunePlan plan;
  plan.layer_ratios["ghost"] = 0.5;
  EXPECT_THROW(ApplyPlanInPlace(net, plan), CheckError);
}

TEST(ApplyPlan, SparsityReportReflectsPlan) {
  nn::ModelConfig config;
  config.weight_seed = 10;
  const nn::Network base = nn::BuildTinyCnn(config);
  const SparsityReport before = AnalyzeSparsity(base);
  EXPECT_DOUBLE_EQ(before.OverallDensity(), 1.0);

  const nn::Network variant =
      ApplyPlan(base, UniformPlan({"conv1", "conv2", "fc1", "fc2"}, 0.5,
                                  PrunerFamily::kMagnitude));
  const SparsityReport after = AnalyzeSparsity(variant);
  EXPECT_NEAR(after.OverallDensity(), 0.5, 0.02);
  EXPECT_EQ(after.layers.size(), 4u);
  EXPECT_EQ(after.total_parameters, before.total_parameters);
}

TEST(VariantGenerator, CartesianSweepCountsAndCoverage) {
  const auto plans = CartesianSweep({"conv1", "conv2"},
                                    {{0.0, 0.1, 0.2}, {0.0, 0.5}});
  EXPECT_EQ(plans.size(), 6u);
  std::set<std::string> labels;
  for (const auto& p : plans) labels.insert(p.Label());
  EXPECT_EQ(labels.size(), 6u);
  EXPECT_TRUE(labels.contains("conv1@20+conv2@50"));
  EXPECT_TRUE(labels.contains("nonpruned"));
}

TEST(VariantGenerator, CartesianRejectsMismatchedGrids) {
  EXPECT_THROW(CartesianSweep({"a", "b"}, {{0.1}}), CheckError);
  EXPECT_THROW(CartesianSweep({"a"}, {{}}), CheckError);
}

TEST(VariantGenerator, RandomVariantsAreDistinctAndSeeded) {
  Rng rng1(42), rng2(42);
  const auto a = RandomVariants({"conv1", "conv2", "conv3"}, 60, 0.9, 0.1,
                                rng1);
  const auto b = RandomVariants({"conv1", "conv2", "conv3"}, 60, 0.9, 0.1,
                                rng2);
  ASSERT_EQ(a.size(), 60u);
  EXPECT_TRUE(a[0].IsNoop()) << "baseline must come first";
  std::set<std::string> labels;
  for (const auto& p : a) labels.insert(p.Label());
  EXPECT_EQ(labels.size(), 60u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Label(), b[i].Label());
  }
}

TEST(VariantGenerator, RandomVariantsRespectMaxRatio) {
  Rng rng(7);
  const auto plans = RandomVariants({"conv1"}, 7, 0.6, 0.1, rng);
  for (const auto& p : plans) {
    EXPECT_LE(p.RatioFor("conv1"), 0.6);
  }
}

TEST(VariantGenerator, RandomVariantsImpossibleCountThrows) {
  Rng rng(7);
  // Only 3 distinct plans exist on a {0, 0.1, 0.2} grid for one layer.
  EXPECT_THROW(RandomVariants({"conv1"}, 10, 0.2, 0.1, rng), CheckError);
}

TEST(PrunerFamily, Names) {
  EXPECT_STREQ(PrunerFamilyName(PrunerFamily::kMagnitude), "magnitude");
  EXPECT_STREQ(PrunerFamilyName(PrunerFamily::kL1Filter), "l1-filter");
}

}  // namespace
}  // namespace ccperf::pruning
