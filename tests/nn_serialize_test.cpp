#include "nn/serialize.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "nn/conv_layer.h"
#include "nn/fc_layer.h"
#include "nn/lrn_layer.h"
#include "nn/model_parser.h"
#include "nn/model_zoo.h"
#include "nn/weights.h"
#include "pruning/filter_pruner.h"
#include "pruning/prune_plan.h"
#include "pruning/variant_generator.h"

namespace ccperf::nn {
namespace {

Network RoundTrip(const Network& net) { return LoadNetwork(SaveNetwork(net)); }

/// Through the file pair, at a path no concurrently running test shares.
Network FileRoundTrip(const Network& net) {
  static int calls = 0;
  const std::string path =
      ::testing::TempDir() + "/ccperf_" + std::to_string(::getpid()) + "_" +
      std::to_string(calls++) + ".ccpf";
  SaveNetworkToFile(net, path);
  Network loaded = LoadNetworkFromFile(path);
  std::remove(path.c_str());
  return loaded;
}

KernelFormat FormatOf(const Layer& layer) {
  if (const auto* conv = dynamic_cast<const ConvLayer*>(&layer)) {
    return conv->Format();
  }
  return dynamic_cast<const FcLayer&>(layer).Format();
}

void ExpectBitwiseEqual(std::span<const float> a, std::span<const float> b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

/// Everything a network file must carry: the model text, every weight and
/// bias bit, each weighted layer's kernel format, and the forward pass.
void ExpectSameNetwork(const Network& a, const Network& b) {
  EXPECT_EQ(FormatModel(b), FormatModel(a));
  ASSERT_EQ(b.LayerCount(), a.LayerCount());
  for (std::size_t i = 0; i < a.LayerCount(); ++i) {
    const Layer& la = a.LayerAt(i);
    const Layer& lb = b.LayerAt(i);
    ASSERT_EQ(lb.HasWeights(), la.HasWeights()) << la.Name();
    if (!la.HasWeights()) continue;
    ExpectBitwiseEqual(la.Weights().Data(), lb.Weights().Data(),
                       la.Name() + " weights");
    ExpectBitwiseEqual(la.Bias().Data(), lb.Bias().Data(),
                       la.Name() + " bias");
    EXPECT_EQ(FormatOf(lb), FormatOf(la)) << la.Name();
  }
  Tensor in(Shape{2, a.InputShape().Dim(0), a.InputShape().Dim(1),
                  a.InputShape().Dim(2)});
  Rng rng(17);
  in.FillGaussian(rng, 0.0f, 1.0f);
  ExpectBitwiseEqual(a.Forward(in).Data(), b.Forward(in).Data(), "forward");
}

/// Both round trips: through the bytes and through the file pair.
void ExpectRoundTripsExactly(const Network& net) {
  ExpectSameNetwork(net, RoundTrip(net));
  ExpectSameNetwork(net, FileRoundTrip(net));
}

Network ScaledCaffeNet() {
  ModelConfig config;
  config.channel_scale = 0.125;
  config.num_classes = 20;
  config.weight_seed = 11;
  return BuildCaffeNet(config);
}

/// True iff some weighted layer of `net` dispatches to `format`.
bool UsesFormat(const Network& net, KernelFormat format) {
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    const Layer& layer = net.LayerAt(i);
    if (layer.HasWeights() && FormatOf(layer) == format) return true;
  }
  return false;
}

TEST(Serialize, TinyCnnRoundTripBitExact) {
  ModelConfig config;
  config.weight_seed = 5;
  const Network net = BuildTinyCnn(config);
  const Network loaded = RoundTrip(net);
  EXPECT_EQ(loaded.Name(), net.Name());
  EXPECT_EQ(loaded.ParameterCount(), net.ParameterCount());
  ExpectSameNetwork(net, loaded);
  ExpectSameNetwork(net, FileRoundTrip(net));
}

TEST(Serialize, PrunedVariantKeepsSparsityAndSparsePath) {
  ModelConfig config;
  config.weight_seed = 6;
  Network tiny = BuildTinyCnn(config);
  pruning::ApplyPlanInPlace(
      tiny, pruning::UniformPlan({"conv1", "conv2", "fc1"}, 0.7,
                                 pruning::PrunerFamily::kMagnitude));
  EXPECT_NEAR(RoundTrip(tiny).FindLayer("conv2")->WeightDensity(), 0.3, 0.01);
  ExpectRoundTripsExactly(tiny);

  // Scaled CaffeNet, dense and pruned so that its layers dispatch to CSR
  // (scattered magnitude pruning) and to BSR (block-aligned filters).
  const Network dense = ScaledCaffeNet();
  ExpectRoundTripsExactly(dense);
  Network csr = dense.Clone();
  pruning::ApplyPlanInPlace(
      csr, pruning::UniformPlan(csr.WeightedLayerNames(), 0.9,
                                pruning::PrunerFamily::kMagnitude));
  ASSERT_TRUE(UsesFormat(csr, KernelFormat::kCsr));
  ExpectRoundTripsExactly(csr);
  Network bsr = dense.Clone();
  const pruning::L1FilterPruner blocks(/*block_aligned=*/true);
  for (const std::string& name : bsr.WeightedLayerNames()) {
    blocks.Prune(*bsr.FindLayer(name), 0.75);
  }
  ASSERT_TRUE(UsesFormat(bsr, KernelFormat::kBsr));
  ExpectRoundTripsExactly(bsr);
}

TEST(Serialize, BranchingDagRoundTrip) {
  // GoogLeNet at reduced scale: concat wiring and LRN params must survive.
  ModelConfig config;
  config.channel_scale = 0.1;
  config.num_classes = 12;
  config.weight_seed = 7;
  ExpectRoundTripsExactly(BuildGoogLeNet(config));

  // LRN parameters away from the defaults, one a float whose shortest
  // six-digit decimal reads back as a different float.
  Network lrn("lrn-net", Shape{4, 6, 6});
  LrnParams params;
  params.local_size = 3;
  params.alpha = std::nextafter(2e-4f, 1.0f);
  params.beta = 0.5f;
  params.k = 2.0f;
  lrn.Add(std::make_unique<LrnLayer>("norm", params));
  lrn.Add(std::make_unique<FcLayer>("fc", 4 * 6 * 6, 5));
  InitializePretrainedWeights(lrn, 3);
  ExpectRoundTripsExactly(lrn);
  const Network loaded = RoundTrip(lrn);
  const auto& norm = static_cast<const LrnLayer&>(loaded.LayerAt(0));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(norm.Params().alpha),
            std::bit_cast<std::uint32_t>(params.alpha));
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ccperf_net.bin";
  ModelConfig config;
  config.weight_seed = 8;
  const Network net = BuildTinyCnn(config);
  SaveNetworkToFile(net, path);
  ExpectSameNetwork(net, LoadNetworkFromFile(path));
  // The atomic write leaves no temporary behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(Serialize, RejectsBadMagic) {
  EXPECT_THROW((void)LoadNetwork("NOPEnonsense-bytes-here----------------------"),
               CheckError);
}

TEST(Serialize, RejectsTruncatedStream) {
  ModelConfig config;
  config.weight_seed = 9;
  const std::string full = SaveNetwork(BuildTinyCnn(config));
  EXPECT_THROW((void)LoadNetwork(full.substr(0, full.size() / 2)), CheckError);
}

TEST(Serialize, RejectsMissingFile) {
  EXPECT_THROW((void)LoadNetworkFromFile("/nonexistent/net.bin"), CheckError);
  ModelConfig config;
  config.weight_seed = 1;
  const Network net = BuildTinyCnn(config);
  EXPECT_THROW(SaveNetworkToFile(net, "/nonexistent/net.bin"), CheckError);
}

TEST(Serialize, VersionFieldChecked) {
  ModelConfig config;
  config.weight_seed = 2;
  std::string bytes = SaveNetwork(BuildTinyCnn(config));
  bytes[4] = 99;  // corrupt the version little-endian low byte
  EXPECT_THROW((void)LoadNetwork(bytes), CheckError);
}

TEST(Serialize, EveryByteFlipAndTruncationThrows) {
  ModelConfig config;
  config.weight_seed = 4;
  const std::string pristine = SaveNetwork(BuildTinyCnn(config));
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    std::string flipped = pristine;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x10);
    EXPECT_THROW((void)LoadNetwork(flipped), CheckError) << "byte " << i;
  }
  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    EXPECT_THROW((void)LoadNetwork(pristine.substr(0, cut)), CheckError)
        << "prefix of " << cut << " bytes";
  }
}

TEST(Serialize, NamesTheModelTextCannotCarryFailAtSave) {
  const auto net_with_layer = [](const std::string& network,
                                 const std::string& layer) {
    Network net(network, Shape{2, 4, 4});
    net.Add(std::make_unique<FcLayer>(layer, 2 * 4 * 4, 3));
    return net;
  };
  EXPECT_NO_THROW((void)SaveNetwork(net_with_layer("ok", "fc_1.a")));
  for (const std::string bad : {"two words", "tab\tname", "hash#", "a=b",
                                "a,b", "", "input"}) {
    EXPECT_THROW((void)SaveNetwork(net_with_layer("ok", bad)), CheckError)
        << "layer '" << bad << "'";
  }
  for (const std::string bad : {"two words", "", "a=b"}) {
    EXPECT_THROW((void)SaveNetwork(net_with_layer(bad, "fc")), CheckError)
        << "network '" << bad << "'";
  }
  EXPECT_THROW((void)SaveNetwork(Network("empty", Shape{1, 1, 1})),
               CheckError);
}

}  // namespace
}  // namespace ccperf::nn
