#include "nn/model_parser.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "common/check.h"
#include "nn/conv_layer.h"
#include "nn/fc_layer.h"
#include "nn/lrn_layer.h"
#include "nn/model_zoo.h"
#include "nn/pool_layer.h"

namespace ccperf::nn {
namespace {

constexpr const char* kTinyText = R"(
# a comment
network tinytext
input 3 16 16
conv  conv1 out=8 kernel=3 stride=1 pad=1
relu  relu1
maxpool pool1 kernel=2 stride=2
conv  conv2 out=16 kernel=3 pad=1 groups=2
relu  relu2
maxpool pool2 kernel=2 stride=2
fc    fc1 out=32
relu  relu3
fc    fc2 out=10
softmax prob
)";

TEST(ModelParser, BuildsChainedNetwork) {
  const Network net = ParseModel(kTinyText, /*weight_seed=*/3);
  EXPECT_EQ(net.Name(), "tinytext");
  EXPECT_EQ(net.LayerCount(), 10u);
  EXPECT_EQ(net.OutputShape(2), (Shape{2, 10, 1, 1}));
}

TEST(ModelParser, InfersChannelsAndFeatures) {
  const Network net = ParseModel(kTinyText);
  const auto* conv2 = dynamic_cast<const ConvLayer*>(net.FindLayer("conv2"));
  ASSERT_NE(conv2, nullptr);
  EXPECT_EQ(conv2->InChannels(), 8);
  EXPECT_EQ(conv2->Weights().GetShape(), (Shape{16, 4, 3, 3}));
  const auto* fc1 = dynamic_cast<const FcLayer*>(net.FindLayer("fc1"));
  ASSERT_NE(fc1, nullptr);
  EXPECT_EQ(fc1->InFeatures(), 16 * 4 * 4);
}

TEST(ModelParser, MatchesHandBuiltTinyCnn) {
  // The DSL description above mirrors BuildTinyCnn (minus dropout); with
  // identical weight seeds the weighted layers coincide only when their
  // names and shapes match, so compare structure.
  ModelConfig config;
  config.weight_seed = 0;
  const Network built = BuildTinyCnn(config);
  const Network parsed = ParseModel(kTinyText);
  EXPECT_EQ(parsed.OutputShape(1), built.OutputShape(1));
  EXPECT_EQ(parsed.ParameterCount(), built.ParameterCount());
}

TEST(ModelParser, BranchingWithFrom) {
  const Network net = ParseModel(R"(
network branchy
input 2 4 4
conv a out=2 kernel=1 from=input
conv b out=3 kernel=1 from=input
concat join from=a,b
relu out from=join
)");
  EXPECT_EQ(net.OutputShape(1), (Shape{1, 5, 4, 4}));
}

TEST(ModelParser, ForwardRuns) {
  const Network net = ParseModel(kTinyText, 7);
  Tensor in(Shape{1, 3, 16, 16}, std::vector<float>(3 * 16 * 16, 0.3f));
  const Tensor out = net.Forward(in);
  float sum = 0.0f;
  for (std::int64_t c = 0; c < 10; ++c) sum += out.At(c);
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(ModelParser, LrnDefaults) {
  const Network net = ParseModel(R"(
network n
input 4 8 8
lrn norm1 size=3 alpha=0.5
)");
  EXPECT_EQ(net.LayerCount(), 1u);
}

TEST(ModelParser, ErrorsCarryLineNumbers) {
  try {
    (void)ParseModel("network x\ninput 3 8 8\nconv c1 kernel=3\n");
    FAIL() << "missing out= must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(ModelParser, RejectsMalformedInput) {
  EXPECT_THROW((void)ParseModel(""), CheckError);
  EXPECT_THROW((void)ParseModel("network x\nconv c out=4\n"), CheckError);
  EXPECT_THROW((void)ParseModel("network x\ninput 3 8\n"), CheckError);
  EXPECT_THROW((void)ParseModel("network x\ninput 3 8 8\nwarp w\n"),
               CheckError);
  EXPECT_THROW(
      (void)ParseModel("network x\ninput 3 8 8\nconv c out=4 from=ghost\n"),
      CheckError);
  EXPECT_THROW(
      (void)ParseModel("network x\ninput 3 8 8\nconv c out=4 kernel=99\n"),
      CheckError);
}

TEST(ModelParser, RejectsImplausibleExtents) {
  // Each would allocate far past 1e9 weights, or divide by zero groups;
  // all must fail as a CheckError naming the line.
  for (const char* layer :
       {"fc f out=4000000000", "conv c out=100000 kernel=100000",
        "fc f out=10000000", "conv c out=4 groups=0",
        "maxpool p kernel=2000000000", "lrn n size=99999999999"}) {
    try {
      (void)ParseModel(std::string("network x\ninput 3 8 8\n") + layer);
      ADD_FAILURE() << layer << " parsed";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)ParseModel("input 3 8 4000000000\nrelu r\n"),
               CheckError);
  EXPECT_THROW(
      (void)ParseModel(
          "input 1000000000 1000000000 1000000000\nfc f out=1\n"),
      CheckError);
}

/// Every hyper-parameter and every wire of `a` and `b`, float ones bitwise.
void ExpectSameHyperParameters(const Network& a, const Network& b) {
  EXPECT_EQ(b.Name(), a.Name());
  EXPECT_EQ(b.InputShape(), a.InputShape());
  ASSERT_EQ(b.LayerCount(), a.LayerCount());
  for (std::size_t i = 0; i < a.LayerCount(); ++i) {
    const Layer& la = a.LayerAt(i);
    const Layer& lb = b.LayerAt(i);
    SCOPED_TRACE(la.Name());
    EXPECT_EQ(lb.Name(), la.Name());
    ASSERT_EQ(lb.Kind(), la.Kind());
    EXPECT_EQ(b.NodeInputs(i), a.NodeInputs(i));
    if (const auto* conv = dynamic_cast<const ConvLayer*>(&la)) {
      const auto& other = static_cast<const ConvLayer&>(lb);
      EXPECT_EQ(other.InChannels(), conv->InChannels());
      EXPECT_EQ(other.Params().out_channels, conv->Params().out_channels);
      EXPECT_EQ(other.Params().kernel, conv->Params().kernel);
      EXPECT_EQ(other.Params().stride, conv->Params().stride);
      EXPECT_EQ(other.Params().pad, conv->Params().pad);
      EXPECT_EQ(other.Params().groups, conv->Params().groups);
    } else if (const auto* fc = dynamic_cast<const FcLayer*>(&la)) {
      const auto& other = static_cast<const FcLayer&>(lb);
      EXPECT_EQ(other.InFeatures(), fc->InFeatures());
      EXPECT_EQ(other.OutFeatures(), fc->OutFeatures());
    } else if (const auto* pool = dynamic_cast<const PoolLayer*>(&la)) {
      const auto& other = static_cast<const PoolLayer&>(lb);
      EXPECT_EQ(other.Params().kernel, pool->Params().kernel);
      EXPECT_EQ(other.Params().stride, pool->Params().stride);
      EXPECT_EQ(other.Params().pad, pool->Params().pad);
    } else if (const auto* lrn = dynamic_cast<const LrnLayer*>(&la)) {
      const LrnParams& p = lrn->Params();
      const LrnParams& q = static_cast<const LrnLayer&>(lb).Params();
      EXPECT_EQ(q.local_size, p.local_size);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(q.alpha),
                std::bit_cast<std::uint32_t>(p.alpha));
      EXPECT_EQ(std::bit_cast<std::uint32_t>(q.beta),
                std::bit_cast<std::uint32_t>(p.beta));
      EXPECT_EQ(std::bit_cast<std::uint32_t>(q.k),
                std::bit_cast<std::uint32_t>(p.k));
    }
  }
}

TEST(ModelParser, FormatModelRoundTripsEveryHyperParameter) {
  std::vector<Network> nets;
  ModelConfig config;
  config.weight_seed = 0;
  nets.push_back(BuildTinyCnn(config));
  config.channel_scale = 0.125;
  nets.push_back(BuildCaffeNet(config));
  config.channel_scale = 0.1;
  nets.push_back(BuildGoogLeNet(config));
  nets.push_back(ParseModel(
      "network lrn\ninput 4 8 8\nlrn n size=3 alpha=0.0002 beta=0.5 k=2\n"));
  // A float that six significant digits cannot tell from its neighbour.
  Network odd("odd-lrn", Shape{4, 8, 8});
  LrnParams params;
  params.alpha = std::nextafter(2e-4f, 1.0f);
  params.beta = std::nextafter(0.75f, 0.0f);
  params.k = -0.0f;
  odd.Add(std::make_unique<LrnLayer>("n", params));
  nets.push_back(std::move(odd));
  for (const Network& net : nets) {
    SCOPED_TRACE(net.Name());
    const std::string text = FormatModel(net);
    const Network reparsed = ParseModel(text);
    EXPECT_EQ(FormatModel(reparsed), text);
    ExpectSameHyperParameters(net, reparsed);
  }
}

TEST(ModelParser, Int8KeyOptsWeightedLayersIn) {
  const Network net = ParseModel(
      "network q\ninput 3 8 8\nconv c out=4 kernel=3 int8=1\nrelu r\n"
      "fc f out=5 int8=0\n");
  EXPECT_TRUE(net.LayerAt(0).Int8Execution());
  EXPECT_FALSE(net.LayerAt(2).Int8Execution());
  // Only a set opt-in is written, so float model text keeps its bytes.
  EXPECT_EQ(FormatModel(net),
            "network q\ninput 3 8 8\nconv c out=4 kernel=3 stride=1 pad=0 "
            "int8=1\nrelu r\nfc f out=5\n");
  for (const char* bad :
       {"relu r int8=1", "maxpool p int8=0", "conv c out=4 int8=2",
        "fc f out=5 int8=yes", "conv c out=4 int8="}) {
    SCOPED_TRACE(bad);
    try {
      (void)ParseModel(std::string("network x\ninput 3 8 8\n") + bad + "\n");
      FAIL() << "must throw";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ModelParser, RoundTripThroughFormat) {
  ModelConfig config;
  config.weight_seed = 0;
  const Network net = BuildTinyCnn(config);
  const std::string text = FormatModel(net);
  const Network reparsed = ParseModel(text);
  EXPECT_EQ(reparsed.LayerCount(), net.LayerCount());
  EXPECT_EQ(reparsed.OutputShape(1), net.OutputShape(1));
  EXPECT_EQ(reparsed.ParameterCount(), net.ParameterCount());
}

TEST(ModelParser, FormatOfBranchingDagRoundTrips) {
  ModelConfig config;
  config.channel_scale = 0.1;
  config.weight_seed = 0;
  config.num_classes = 7;
  const Network goog = BuildGoogLeNet(config);
  const Network reparsed = ParseModel(FormatModel(goog));
  EXPECT_EQ(reparsed.LayerCount(), goog.LayerCount());
  EXPECT_EQ(reparsed.OutputShape(1), goog.OutputShape(1));
}

TEST(ModelParser, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ccperf_model.txt";
  {
    std::ofstream out(path);
    out << kTinyText;
  }
  const Network net = ParseModelFile(path);
  EXPECT_EQ(net.Name(), "tinytext");
  std::remove(path.c_str());
  EXPECT_THROW((void)ParseModelFile("/nonexistent/model.txt"), CheckError);
}

}  // namespace
}  // namespace ccperf::nn
