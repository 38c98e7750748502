// End-to-end integration at reduced scale: build a scaled CaffeNet, prune
// it for real, run real inference, and check the analytic cloud-model path
// agrees with densities measured from the actual network.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "cloud/density.h"
#include "cloud/simulator.h"
#include "common/threading.h"
#include "core/accuracy_model.h"
#include "core/empirical_accuracy.h"
#include "core/explorer.h"
#include "data/synthetic_dataset.h"
#include "nn/model_zoo.h"
#include "pruning/sparsity.h"
#include "pruning/variant_generator.h"

namespace ccperf {
namespace {

nn::Network ScaledCaffeNet() {
  nn::ModelConfig config;
  config.channel_scale = 0.125;
  config.num_classes = 50;
  config.weight_seed = 2024;
  return nn::BuildCaffeNet(config);
}

TEST(EndToEnd, ScaledCaffeNetRealInference) {
  const nn::Network net = ScaledCaffeNet();
  const data::SyntheticImageDataset dataset(Shape{3, 227, 227}, 50, 64, 1);
  const Tensor logits = net.Forward(dataset.Batch(0, 2));
  ASSERT_EQ(logits.GetShape(), (Shape{2, 50, 1, 1}));
  // Softmax output: rows are probability distributions.
  for (std::int64_t b = 0; b < 2; ++b) {
    float sum = 0.0f;
    for (std::int64_t c = 0; c < 50; ++c) sum += logits.At(b * 50 + c);
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST(EndToEnd, RealPruningSpeedsUpScaledInference) {
  // On the real CPU engine, CSR execution of a 90 %-pruned network must
  // beat dense execution of the unpruned one (the mechanism the cloud
  // model assumes). Use model cost (deterministic) rather than wall time
  // (noisy on shared CI machines) — plus one wall-clock spot check.
  const nn::Network base = ScaledCaffeNet();
  const nn::Network pruned = pruning::ApplyPlan(
      base, pruning::UniformPlan(
                {"conv1", "conv2", "conv3", "conv4", "conv5"}, 0.9,
                pruning::PrunerFamily::kMagnitude));
  // Overall density stays high (fc layers dominate the parameter count and
  // are untouched); the conv layers themselves must be 90 % sparse.
  const pruning::SparsityReport report = pruning::AnalyzeSparsity(pruned);
  for (const auto& layer : report.layers) {
    if (layer.name.rfind("conv", 0) == 0) {
      EXPECT_NEAR(layer.density, 0.1, 0.01) << layer.name;
    }
  }

  const data::SyntheticImageDataset dataset(Shape{3, 227, 227}, 50, 8, 2);
  const Tensor batch = dataset.Batch(0, 2);
  // Summed conv2-conv5 time of each network's fastest of five passes,
  // after one warm-up pass each. conv1 is left out: it is im2col-bound, so
  // 90% pruning leaves its time (three quarters of the conv total) where it
  // was, as the paper's Observation 2 says, and its noise would swamp what
  // the other four gain. The passes alternate between the networks and run
  // on the calling thread: a cold pass also times first-touch page faults,
  // and pool hand-offs and host steal move a pass by more than pruning
  // saves.
  const auto conv_seconds = [&batch](const nn::Network& net) {
    std::vector<nn::LayerTiming> times;
    (void)net.Forward(batch, &times);
    double conv = 0.0;
    for (const auto& t : times) {
      if (t.kind == nn::LayerKind::kConvolution && t.name != "conv1") {
        conv += t.seconds;
      }
    }
    return conv;
  };
  const ScopedSerial serial;
  (void)base.Forward(batch);
  (void)pruned.Forward(batch);
  double base_conv = std::numeric_limits<double>::infinity();
  double pruned_conv = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 5; ++pass) {
    base_conv = std::min(base_conv, conv_seconds(base));
    pruned_conv = std::min(pruned_conv, conv_seconds(pruned));
  }
  EXPECT_LT(pruned_conv, base_conv);
}

TEST(EndToEnd, AnalyticAndMeasuredDensityAgreeOnCaffeNetShape) {
  nn::ModelConfig config;
  config.channel_scale = 0.125;
  config.weight_seed = 5;
  const nn::Network base = nn::BuildCaffeNet(config);
  const cloud::ModelProfile profile = cloud::CaffeNetProfile();

  pruning::PrunePlan plan;
  plan.family = pruning::PrunerFamily::kL1Filter;
  plan.layer_ratios["conv1"] = 0.25;
  plan.layer_ratios["conv2"] = 0.5;
  plan.layer_ratios["conv4"] = 0.5;

  const cloud::DensityMap analytic = cloud::DensityFromPlan(profile, plan);
  const cloud::DensityMap measured =
      cloud::DensityFromNetwork(pruning::ApplyPlan(base, plan));
  for (const char* layer : {"conv1", "conv2", "conv3", "conv4", "conv5"}) {
    EXPECT_NEAR(analytic.at(layer).element, measured.at(layer).element, 0.05)
        << layer;
    EXPECT_NEAR(analytic.at(layer).in_channel, measured.at(layer).in_channel,
                0.05)
        << layer;
  }
}

TEST(EndToEnd, EmpiricalSweetSpotOnScaledCaffeNet) {
  // Teacher-student agreement on the real (scaled) CaffeNet shows the
  // paper's sweet-spot: mild magnitude pruning keeps Top-5 agreement high.
  nn::ModelConfig config;
  config.channel_scale = 0.0625;
  config.num_classes = 20;
  config.weight_seed = 31;
  const nn::Network base = nn::BuildCaffeNet(config);
  const data::SyntheticImageDataset dataset(Shape{3, 227, 227}, 20, 32, 3,
                                            0.4f);
  const core::EmpiricalAccuracyEvaluator evaluator(base, dataset, 12, 4);

  const nn::Network mild = pruning::ApplyPlan(
      base, pruning::UniformPlan({"conv2", "conv3", "conv4", "conv5"}, 0.25,
                                 pruning::PrunerFamily::kMagnitude));
  const core::AccuracyResult mild_acc = evaluator.Agreement(mild);
  EXPECT_GT(mild_acc.top5, 0.8);

  const nn::Network savage = pruning::ApplyPlan(
      base,
      pruning::UniformPlan({"conv1", "conv2", "conv3", "conv4", "conv5"},
                           0.95, pruning::PrunerFamily::kMagnitude));
  const core::AccuracyResult savage_acc = evaluator.Agreement(savage);
  EXPECT_LT(savage_acc.top1, mild_acc.top1);
}

TEST(EndToEnd, FullPipelineModelDrivenExploration) {
  // Variants -> densities -> simulator -> Pareto, all through public APIs.
  const cloud::InstanceCatalog catalog = cloud::InstanceCatalog::AwsEc2();
  const cloud::CloudSimulator sim(catalog);
  const cloud::ModelProfile profile = cloud::CaffeNetProfile();
  const core::CalibratedAccuracyModel accuracy =
      core::CalibratedAccuracyModel::CaffeNet();
  const core::ConfigSpaceExplorer explorer(sim, profile, accuracy);

  const auto variants = pruning::CartesianSweep(
      {"conv1", "conv2"}, {{0.0, 0.2, 0.4}, {0.0, 0.25, 0.5}});
  const auto configs = cloud::EnumerateConfigs(catalog.Types(), 1);
  const core::ExplorationResult result =
      explorer.Explore(variants, configs, 200000, Seconds(4.0 * 3600.0),
                       Usd(50.0));
  EXPECT_GT(result.feasible.size(), 50u);

  const auto frontier = core::TimeAccuracyFrontier(result.feasible, true);
  ASSERT_FALSE(frontier.empty());
  // The highest-accuracy frontier point must be the nonpruned variant.
  EXPECT_EQ(result.feasible[frontier.front()].variant_label, "nonpruned");
}

}  // namespace
}  // namespace ccperf
