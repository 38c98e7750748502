// End-to-end determinism: a full CaffeNet forward pass must be bitwise
// reproducible run-to-run AND independent of the thread pool, because the
// blocked GEMM accumulates every output element in a fixed ascending-k
// order inside exactly one task. Bitwise equality (memcmp, not NEAR) is the
// point: it is what makes pruning experiments replayable across machines
// with different core counts.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/threading.h"
#include "data/synthetic_dataset.h"
#include "nn/conv_layer.h"
#include "nn/model_parser.h"
#include "nn/model_zoo.h"
#include "pruning/filter_pruner.h"
#include "pruning/magnitude_pruner.h"

namespace ccperf {
namespace {

nn::Network ScaledCaffeNet() {
  nn::ModelConfig config;
  config.channel_scale = 0.25;
  config.num_classes = 32;
  config.weight_seed = 777;
  return nn::BuildCaffeNet(config);
}

std::vector<float> Logits(const nn::Network& net, const Tensor& batch) {
  const Tensor out = net.Forward(batch);
  const std::span<const float> data = out.Data();
  return {data.begin(), data.end()};
}

TEST(Determinism, CaffeNetForwardIsBitwiseReproducible) {
  const nn::Network net = ScaledCaffeNet();
  const data::SyntheticImageDataset dataset(Shape{3, 227, 227}, 32, 8, 9);
  const Tensor batch = dataset.Batch(0, 2);

  const std::vector<float> first = Logits(net, batch);
  const std::vector<float> second = Logits(net, batch);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(0, std::memcmp(first.data(), second.data(),
                           first.size() * sizeof(float)));
}

TEST(Determinism, CaffeNetForwardMatchesSerialExecution) {
  const nn::Network net = ScaledCaffeNet();
  const data::SyntheticImageDataset dataset(Shape{3, 227, 227}, 32, 8, 9);
  // Batch 1 runs the fc layers through Gemv, batches 2 and 5 through Gemm;
  // at batch 5 the image-wise layers run one pool task per image.
  for (const std::int64_t images : {1, 2, 5}) {
    SCOPED_TRACE(::testing::Message() << "batch " << images);
    const Tensor batch = dataset.Batch(0, images);

    const std::vector<float> pooled = Logits(net, batch);
    std::vector<float> serial;
    {
      // ScopedSerial forces every ParallelFor into the calling thread — the
      // ThreadPool(1) equivalent — without rebuilding the global pool.
      ScopedSerial serial_scope;
      serial = Logits(net, batch);
    }
    ASSERT_EQ(pooled.size(), serial.size());
    EXPECT_EQ(0, std::memcmp(pooled.data(), serial.data(),
                             pooled.size() * sizeof(float)));
  }
}

/// Count of weighted layers currently dispatched to `kernel`.
int LayersOnKernel(nn::Network& net, SparseKernel kernel) {
  int count = 0;
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    if (auto* conv = dynamic_cast<nn::ConvLayer*>(&net.LayerAt(i))) {
      if (conv->Kernel() == kernel) ++count;
    }
  }
  return count;
}

TEST(Determinism, PrunedCsrForwardMatchesSerialExecution) {
  // Same contract as the dense pass, with the CSR sparse kernels active:
  // each C element is still accumulated in a fixed order (four partial
  // accumulators combined in a fixed tree) by exactly one task, so the
  // pooled and serial results must be bitwise identical.
  nn::Network net = ScaledCaffeNet();
  pruning::MagnitudePruner pruner;
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    nn::Layer& layer = net.LayerAt(i);
    if (layer.HasWeights()) pruner.Prune(layer, 0.85);
  }
  ASSERT_GT(LayersOnKernel(net, SparseKernel::kCsr), 0)
      << "pruning did not activate any CSR layer";
  const data::SyntheticImageDataset dataset(Shape{3, 227, 227}, 32, 8, 9);
  // Batch 1 runs the fc layers through CSR MultiplyVector.
  for (const std::int64_t images : {1, 2, 5}) {
    SCOPED_TRACE(::testing::Message() << "batch " << images);
    const Tensor batch = dataset.Batch(0, images);

    const std::vector<float> pooled = Logits(net, batch);
    const std::vector<float> repeat = Logits(net, batch);
    std::vector<float> serial;
    {
      ScopedSerial serial_scope;
      serial = Logits(net, batch);
    }
    ASSERT_EQ(pooled.size(), serial.size());
    EXPECT_EQ(0, std::memcmp(pooled.data(), repeat.data(),
                             pooled.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(pooled.data(), serial.data(),
                             pooled.size() * sizeof(float)));
  }
}

TEST(Determinism, PrunedBsrForwardMatchesSerialExecution) {
  // Block-aligned filter pruning keeps BSR fill at 1.0, so the dispatch
  // flips the conv layers to the block-sparse kernel; the determinism
  // contract must hold there too.
  nn::Network net = ScaledCaffeNet();
  pruning::L1FilterPruner pruner(/*block_aligned=*/true);
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    nn::Layer& layer = net.LayerAt(i);
    if (layer.HasWeights()) pruner.Prune(layer, 0.75);
  }
  ASSERT_GT(LayersOnKernel(net, SparseKernel::kBsr), 0)
      << "block pruning did not activate any BSR layer";
  const data::SyntheticImageDataset dataset(Shape{3, 227, 227}, 32, 8, 9);
  const Tensor batch = dataset.Batch(0, 2);

  const std::vector<float> pooled = Logits(net, batch);
  const std::vector<float> repeat = Logits(net, batch);
  std::vector<float> serial;
  {
    ScopedSerial serial_scope;
    serial = Logits(net, batch);
  }
  ASSERT_EQ(pooled.size(), serial.size());
  EXPECT_EQ(0, std::memcmp(pooled.data(), repeat.data(),
                           pooled.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(pooled.data(), serial.data(),
                           pooled.size() * sizeof(float)));
}

TEST(Determinism, Int8ForwardMatchesSerialExecution) {
  // Quantized execution keeps the full determinism contract: the int8
  // kernel accumulates in exact int32 (associative — immune to chunking)
  // and dequantizes each element exactly once, so the pooled, repeated,
  // and serial (one-thread-pool-equivalent) forwards must all be bitwise
  // identical. This is pool-size independence for the quantized path.
  nn::Network net = ScaledCaffeNet();
  net.SetInt8Execution(true);
  int int8_layers = 0;
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    if (auto* conv = dynamic_cast<nn::ConvLayer*>(&net.LayerAt(i))) {
      if (conv->Format() == KernelFormat::kInt8) ++int8_layers;
    }
  }
  ASSERT_GT(int8_layers, 0) << "int8 mode did not activate any conv layer";
  const data::SyntheticImageDataset dataset(Shape{3, 227, 227}, 32, 8, 9);
  // Batch 1 runs the fc layers through GemmInt8 at one column.
  for (const std::int64_t images : {1, 2, 5}) {
    SCOPED_TRACE(::testing::Message() << "batch " << images);
    const Tensor batch = dataset.Batch(0, images);

    const std::vector<float> pooled = Logits(net, batch);
    const std::vector<float> repeat = Logits(net, batch);
    std::vector<float> serial;
    {
      ScopedSerial serial_scope;
      serial = Logits(net, batch);
    }
    ASSERT_EQ(pooled.size(), serial.size());
    EXPECT_EQ(0, std::memcmp(pooled.data(), repeat.data(),
                             pooled.size() * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(pooled.data(), serial.data(),
                             pooled.size() * sizeof(float)));
  }
}

TEST(Determinism, PrunedInt8MixedFormatForwardMatchesSerialExecution) {
  // Pruning + quantization together: deeply pruned layers dispatch to CSR
  // while the rest run int8 — the mixed-format network must still be
  // bitwise pool-independent.
  nn::Network net = ScaledCaffeNet();
  net.SetInt8Execution(true);
  pruning::MagnitudePruner pruner;
  // Prune only the odd weighted layers so both formats are present.
  bool prune_this = false;
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    nn::Layer& layer = net.LayerAt(i);
    if (!layer.HasWeights()) continue;
    if (prune_this) pruner.Prune(layer, 0.9);
    prune_this = !prune_this;
  }
  int int8_layers = 0;
  int csr_layers = 0;
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    if (auto* conv = dynamic_cast<nn::ConvLayer*>(&net.LayerAt(i))) {
      int8_layers += conv->Format() == KernelFormat::kInt8;
      csr_layers += conv->Format() == KernelFormat::kCsr;
    }
  }
  ASSERT_GT(int8_layers, 0) << "no conv layer stayed on the int8 path";
  ASSERT_GT(csr_layers, 0) << "pruning did not flip any conv layer to CSR";
  const data::SyntheticImageDataset dataset(Shape{3, 227, 227}, 32, 8, 9);
  const Tensor batch = dataset.Batch(0, 2);

  const std::vector<float> pooled = Logits(net, batch);
  const std::vector<float> repeat = Logits(net, batch);
  std::vector<float> serial;
  {
    ScopedSerial serial_scope;
    serial = Logits(net, batch);
  }
  ASSERT_EQ(pooled.size(), serial.size());
  EXPECT_EQ(0, std::memcmp(pooled.data(), repeat.data(),
                           pooled.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(pooled.data(), serial.data(),
                           pooled.size() * sizeof(float)));
}

TEST(Determinism, GoogLeNetForwardMatchesSerialExecution) {
  // GoogLeNet adds what CaffeNet lacks: concat, 1x1 convs that multiply the
  // image in place of a column buffer, and an average pool.
  nn::ModelConfig config;
  config.channel_scale = 0.1;
  config.num_classes = 32;
  config.weight_seed = 778;
  const nn::Network net = nn::BuildGoogLeNet(config);
  const data::SyntheticImageDataset dataset(Shape{3, 224, 224}, 32, 8, 10);
  const Tensor batch = dataset.Batch(0, 5);

  const std::vector<float> pooled = Logits(net, batch);
  std::vector<float> serial;
  {
    ScopedSerial serial_scope;
    serial = Logits(net, batch);
  }
  ASSERT_EQ(pooled.size(), serial.size());
  EXPECT_EQ(0, std::memcmp(pooled.data(), serial.data(),
                           pooled.size() * sizeof(float)));
}

TEST(Determinism, ImageWiseLayersGiveEachImageItsBatchOneBits) {
  // Every layer here maps one image to one image, so each image of a batch
  // must come out bitwise as it does alone: the property that lets these
  // layers run one pool task per image. conv1 has a 400-deep patch and
  // 2,304 output pixels (two k blocks, three column blocks), conv2 is
  // grouped, and `proj` multiplies its input in place of a column buffer.
  // The dense, CSR and int8 conv paths each run.
  constexpr char kModel[] = R"(
network imagewise
input 16 48 48
conv conv1 out=64 kernel=5 pad=2
relu relu1
lrn norm1 size=5
maxpool pool1 kernel=3 stride=2
conv conv2 out=48 kernel=3 pad=1 groups=2
relu relu2
conv proj out=16 kernel=1 from=relu2
avgpool avg kernel=3 stride=1 pad=1 from=relu2
concat mixed from=proj,avg
)";
  constexpr std::int64_t kBatch = 5;
  const data::SyntheticImageDataset dataset(Shape{16, 48, 48}, 4, kBatch, 11);
  const Tensor batch = dataset.Batch(0, kBatch);
  for (const KernelFormat format :
       {KernelFormat::kFloat, KernelFormat::kCsr, KernelFormat::kInt8}) {
    SCOPED_TRACE(::testing::Message() << "format " << ToString(format));
    nn::Network net = nn::ParseModel(kModel, /*weight_seed=*/12);
    if (format == KernelFormat::kCsr) {
      pruning::MagnitudePruner pruner;
      for (const std::string& name : net.WeightedLayerNames()) {
        pruner.Prune(*net.FindLayer(name), 0.85);
      }
    }
    net.SetInt8Execution(format == KernelFormat::kInt8);
    for (const std::string& name : net.WeightedLayerNames()) {
      ASSERT_EQ(dynamic_cast<const nn::ConvLayer&>(*net.FindLayer(name))
                    .Format(),
                format)
          << name;
    }
    const std::vector<float> together = Logits(net, batch);
    const std::size_t image = together.size() / kBatch;
    for (std::int64_t img = 0; img < kBatch; ++img) {
      const std::vector<float> alone = Logits(net, dataset.Batch(img, 1));
      ASSERT_EQ(alone.size(), image);
      EXPECT_EQ(0, std::memcmp(alone.data(),
                               together.data() +
                                   static_cast<std::size_t>(img) * image,
                               image * sizeof(float)))
          << "image " << img;
    }
  }
}

TEST(Determinism, TinyCnnForwardIsBitwiseReproducible) {
  // Cheap guard that also covers the fc batched fast path (batch > 1).
  nn::ModelConfig config;
  config.channel_scale = 1.0;
  config.num_classes = 10;
  config.weight_seed = 3;
  const nn::Network net = nn::BuildTinyCnn(config);
  const data::SyntheticImageDataset dataset(Shape{3, 16, 16}, 10, 16, 4);
  const Tensor batch = dataset.Batch(0, 4);
  const std::vector<float> a = Logits(net, batch);
  const std::vector<float> b = Logits(net, batch);
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

}  // namespace
}  // namespace ccperf
