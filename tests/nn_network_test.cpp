#include "nn/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/check.h"
#include "common/rng.h"
#include "nn/activation_layers.h"
#include "nn/concat_layer.h"
#include "nn/conv_layer.h"
#include "nn/fc_layer.h"
#include "nn/model_zoo.h"

namespace ccperf::nn {
namespace {

Network LinearNet() {
  Network net("linear", Shape{2, 4, 4});
  net.Add(std::make_unique<ConvLayer>(
      "conv", ConvParams{.out_channels = 3, .kernel = 3, .pad = 1}, 2));
  net.Add(std::make_unique<ReluLayer>("relu"));
  net.Add(std::make_unique<FcLayer>("fc", 3 * 4 * 4, 5));
  net.Add(std::make_unique<SoftmaxLayer>("prob"));
  return net;
}

TEST(Network, ImplicitChainWiring) {
  Network net = LinearNet();
  EXPECT_EQ(net.LayerCount(), 4u);
  EXPECT_EQ(net.NodeInputs(0), std::vector<std::int64_t>{-1});
  EXPECT_EQ(net.NodeInputs(1), std::vector<std::int64_t>{0});
  EXPECT_EQ(net.NodeInputs(3), std::vector<std::int64_t>{2});
}

TEST(Network, OutputShape) {
  Network net = LinearNet();
  EXPECT_EQ(net.OutputShape(3), (Shape{3, 5, 1, 1}));
}

TEST(Network, ForwardProducesDistribution) {
  Network net = LinearNet();
  Rng rng(1);
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    if (net.LayerAt(i).HasWeights()) {
      net.LayerAt(i).MutableWeights().FillGaussian(rng, 0.0f, 0.5f);
      net.LayerAt(i).NotifyWeightsChanged();
    }
  }
  Tensor in(Shape{2, 2, 4, 4});
  in.FillGaussian(rng, 0.0f, 1.0f);
  const Tensor out = net.Forward(in);
  ASSERT_EQ(out.GetShape(), (Shape{2, 5, 1, 1}));
  for (std::int64_t b = 0; b < 2; ++b) {
    float sum = 0.0f;
    for (std::int64_t c = 0; c < 5; ++c) sum += out.At(b * 5 + c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Network, TimingsCoverAllLayers) {
  Network net = LinearNet();
  Tensor in(Shape{1, 2, 4, 4});
  std::vector<LayerTiming> timings;
  (void)net.Forward(in, &timings);
  ASSERT_EQ(timings.size(), 4u);
  EXPECT_EQ(timings[0].name, "conv");
  EXPECT_EQ(timings[3].kind, LayerKind::kSoftmax);
  for (const auto& t : timings) EXPECT_GE(t.seconds, 0.0);
}

TEST(Network, BranchingDagWithConcat) {
  Network net("dag", Shape{2, 3, 3});
  net.Add(std::make_unique<ConvLayer>(
              "a", ConvParams{.out_channels = 2, .kernel = 1}, 2),
          {"input"});
  net.Add(std::make_unique<ConvLayer>(
              "b", ConvParams{.out_channels = 3, .kernel = 1}, 2),
          {"input"});
  net.Add(std::make_unique<ConcatLayer>("join"), {"a", "b"});
  EXPECT_EQ(net.OutputShape(1), (Shape{1, 5, 3, 3}));
  Tensor in(Shape{1, 2, 3, 3}, std::vector<float>(18, 1.0f));
  const Tensor out = net.Forward(in);
  EXPECT_EQ(out.GetShape(), (Shape{1, 5, 3, 3}));
}

TEST(Network, DiamondReuseOfOneActivation) {
  // Both branches read the same conv output — the refcounted release must
  // not free it between consumers.
  Network net("diamond", Shape{1, 2, 2});
  net.Add(std::make_unique<ConvLayer>(
      "stem", ConvParams{.out_channels = 2, .kernel = 1}, 1));
  net.Add(std::make_unique<ReluLayer>("left"), {"stem"});
  net.Add(std::make_unique<ReluLayer>("right"), {"stem"});
  net.Add(std::make_unique<ConcatLayer>("join"), {"left", "right"});
  Tensor in(Shape{1, 1, 2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  const Tensor out = net.Forward(in);
  EXPECT_EQ(out.GetShape(), (Shape{1, 4, 2, 2}));
}

// --- Handing the last reader its input's storage ---------------------------
// Network::Forward passes a single-input layer that is the last reader of
// an intermediate that tensor's storage (Layer::ForwardInPlace); ReLU and
// dropout then work in place. No other reader, and never the caller's
// input, may see the change.

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.GetShape() == b.GetShape() &&
         std::memcmp(a.Data().data(), b.Data().data(),
                     a.Data().size_bytes()) == 0;
}

Tensor ReluOf(Tensor t) {
  for (float& v : t.Data()) v = std::max(v, 0.0f);
  return t;
}

/// A 1x1 conv with both signs in its output, for the handover tests.
std::unique_ptr<ConvLayer> SignedStem() {
  auto stem = std::make_unique<ConvLayer>(
      "stem", ConvParams{.out_channels = 2, .kernel = 1}, 1);
  stem->MutableWeights().Data()[0] = 1.0f;
  stem->MutableWeights().Data()[1] = -1.0f;
  stem->NotifyWeightsChanged();
  return stem;
}

Tensor SignedInput() {
  return Tensor(Shape{1, 1, 2, 2}, {1.0f, -2.0f, 3.0f, -4.0f});
}

TEST(Network, ReluSharingItsInputLeavesTheOtherReaderUnchanged) {
  // The ReLU reads the conv output first (and copies) or last (and works
  // in place); either way the dropout beside it sees the pre-ReLU values.
  for (const bool relu_first : {true, false}) {
    SCOPED_TRACE(relu_first ? "relu reads first" : "relu reads last");
    Network net("shared", Shape{1, 2, 2});
    net.Add(SignedStem());
    if (relu_first) net.Add(std::make_unique<ReluLayer>("relu"), {"stem"});
    net.Add(std::make_unique<DropoutLayer>("other"), {"stem"});
    if (!relu_first) net.Add(std::make_unique<ReluLayer>("relu"), {"stem"});
    net.Add(std::make_unique<ConcatLayer>("join"), {"relu", "other"});

    const Tensor in = SignedInput();
    const Tensor stem = net.LayerAt(0).Forward({&in});
    const Tensor relu = ReluOf(stem);
    const Tensor want = ConcatLayer("want").Forward({&relu, &stem});
    EXPECT_TRUE(SameBits(net.Forward(in), want));
  }
}

TEST(Network, ReluOnTheNetworkInputLeavesTheCallersTensor) {
  Network net("input_relu", Shape{1, 2, 2});
  net.Add(std::make_unique<ReluLayer>("relu"));
  const Tensor in = SignedInput();
  const Tensor before = in;
  const Tensor out = net.Forward(in);
  EXPECT_TRUE(SameBits(in, before));
  EXPECT_TRUE(SameBits(out, ReluOf(before)));
}

TEST(Network, EndingInReluOrDropoutReturnsItsOutput) {
  const Tensor in = SignedInput();
  const Tensor stem = SignedStem()->Forward({&in});

  Network relu_net("ends_in_relu", Shape{1, 2, 2});
  relu_net.Add(SignedStem());
  relu_net.Add(std::make_unique<ReluLayer>("relu"));
  EXPECT_TRUE(SameBits(relu_net.Forward(in), ReluOf(stem)));

  Network dropout_net("ends_in_dropout", Shape{1, 2, 2});
  dropout_net.Add(SignedStem());
  dropout_net.Add(std::make_unique<DropoutLayer>("drop"));
  EXPECT_TRUE(SameBits(dropout_net.Forward(in), stem));

  Network both_net("relu_then_dropout", Shape{1, 2, 2});
  both_net.Add(SignedStem());
  both_net.Add(std::make_unique<ReluLayer>("relu"));
  both_net.Add(std::make_unique<DropoutLayer>("drop"));
  EXPECT_TRUE(SameBits(both_net.Forward(in), ReluOf(stem)));
}

TEST(Network, HandoverKeepsOneTimingPerLayerInOrder) {
  Network net("timed", Shape{1, 2, 2});
  net.Add(SignedStem());
  net.Add(std::make_unique<ReluLayer>("relu"));
  net.Add(std::make_unique<DropoutLayer>("other"), {"stem"});
  net.Add(std::make_unique<ConcatLayer>("join"), {"relu", "other"});
  net.Add(std::make_unique<ReluLayer>("relu2"));
  net.Add(std::make_unique<DropoutLayer>("drop"));
  std::vector<LayerTiming> timings;
  (void)net.Forward(SignedInput(), &timings);
  ASSERT_EQ(timings.size(), net.LayerCount());
  for (std::size_t i = 0; i < timings.size(); ++i) {
    EXPECT_EQ(timings[i].name, net.LayerAt(i).Name());
    EXPECT_EQ(timings[i].kind, net.LayerAt(i).Kind());
  }
}

TEST(Network, FindLayer) {
  Network net = LinearNet();
  EXPECT_NE(net.FindLayer("fc"), nullptr);
  EXPECT_EQ(net.FindLayer("nope"), nullptr);
}

TEST(Network, RejectsDuplicateNames) {
  Network net("dup", Shape{1, 2, 2});
  net.Add(std::make_unique<ReluLayer>("x"));
  EXPECT_THROW(net.Add(std::make_unique<ReluLayer>("x")), CheckError);
}

TEST(Network, RejectsUnknownInput) {
  Network net("bad", Shape{1, 2, 2});
  EXPECT_THROW(net.Add(std::make_unique<ReluLayer>("r"), {"ghost"}),
               CheckError);
}

TEST(Network, RejectsWrongInputShape) {
  Network net = LinearNet();
  Tensor in(Shape{1, 3, 4, 4});
  EXPECT_THROW((void)net.Forward(in), CheckError);
}

TEST(Network, ParameterCount) {
  Network net = LinearNet();
  // conv: 3*2*3*3 = 54 weights + 3 bias; fc: 5*48 = 240 + 5.
  EXPECT_EQ(net.ParameterCount(), 54 + 3 + 240 + 5);
}

TEST(Network, CloneIsDeepAndEquivalent) {
  Network net = LinearNet();
  Rng rng(4);
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    if (net.LayerAt(i).HasWeights()) {
      net.LayerAt(i).MutableWeights().FillGaussian(rng, 0.0f, 0.5f);
      net.LayerAt(i).NotifyWeightsChanged();
    }
  }
  Network clone = net.Clone();
  Tensor in(Shape{1, 2, 4, 4});
  in.FillGaussian(rng, 0.0f, 1.0f);
  const Tensor a = net.Forward(in);
  const Tensor b = clone.Forward(in);
  for (std::int64_t i = 0; i < a.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(a.At(i), b.At(i));
  }
  // Mutating the original must not affect the clone.
  net.FindLayer("fc")->MutableWeights().Set(0, 1234.0f);
  net.FindLayer("fc")->NotifyWeightsChanged();
  const Tensor c = clone.Forward(in);
  for (std::int64_t i = 0; i < b.NumElements(); ++i) {
    EXPECT_FLOAT_EQ(b.At(i), c.At(i));
  }
}

TEST(Network, WeightedLayerNames) {
  Network net = LinearNet();
  EXPECT_EQ(net.WeightedLayerNames(),
            (std::vector<std::string>{"conv", "fc"}));
}

TEST(ArgMax, PicksHighestScore) {
  Tensor logits(Shape{2, 3, 1, 1}, {0.1f, 0.7f, 0.2f, 0.5f, 0.1f, 0.4f});
  const auto labels = ArgMax(logits);
  EXPECT_EQ(labels, (std::vector<std::int64_t>{1, 0}));
}

TEST(TopK, ReturnsDescendingClasses) {
  Tensor logits(Shape{1, 5, 1, 1}, {0.1f, 0.5f, 0.3f, 0.05f, 0.05f});
  const auto top3 = TopK(logits, 3);
  ASSERT_EQ(top3.size(), 1u);
  EXPECT_EQ(top3[0], (std::vector<std::int64_t>{1, 2, 0}));
}

TEST(TopK, RejectsBadK) {
  Tensor logits(Shape{1, 3, 1, 1});
  EXPECT_THROW(TopK(logits, 0), CheckError);
  EXPECT_THROW(TopK(logits, 4), CheckError);
}

}  // namespace
}  // namespace ccperf::nn
