// Supporting kernel microbenchmarks (google-benchmark): the compute
// primitives whose behaviour the cloud model abstracts — GEMM, CSR sparse
// multiply at several sparsities, im2col, and a full conv layer forward.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "nn/conv_layer.h"
#include "nn/model_zoo.h"
#include "pruning/magnitude_pruner.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/sparse.h"
#include "train/trainer.h"

namespace {

using namespace ccperf;

std::vector<float> RandomVec(std::int64_t n, std::uint64_t seed,
                             double sparsity = 0.0) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = rng.NextDouble() < sparsity ? 0.0f : rng.NextFloat(-1.0f, 1.0f);
  }
  return v;
}

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto a = RandomVec(n * n, 1);
  const auto b = RandomVec(n * n, 2);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    Gemm(n, n, n, a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

// Reference-vs-packed GFLOP/s on the conv GEMM shapes of the paper's
// Table 1 models (m = out_ch/group, n = out pixels, k = patch size).
// Shape index -> (name is in the comment; google-benchmark args are ints).
//   0 caffenet conv1       96 x 3025 x  363
//   1 caffenet conv2/g    128 x  729 x 1200
//   2 caffenet conv3      384 x  169 x 2304
//   3 caffenet conv4/g    192 x  169 x 1728
//   4 googlenet conv1-7x7  64 x 12544 x 147
//   5 googlenet 3a-3x3    128 x  784 x  864
//   6 googlenet 5b-3x3    384 x   49 x 1728
constexpr std::int64_t kTable1Shapes[][3] = {
    {96, 3025, 363},  {128, 729, 1200}, {384, 169, 2304}, {192, 169, 1728},
    {64, 12544, 147}, {128, 784, 864},  {384, 49, 1728},
};

// A rate counter divides by the benchmark's time, so a kernel that runs on
// the pool registers with UseRealTime(): the calling thread's CPU time is
// mostly spent asleep on the pool's latch.
void GemmGflops(benchmark::State& state, std::int64_t m, std::int64_t n,
                std::int64_t k) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * static_cast<double>(m) *
          static_cast<double>(n) * static_cast<double>(k),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void BM_GemmReferenceTable1(benchmark::State& state) {
  const auto [m, n, k] = kTable1Shapes[state.range(0)];
  const auto a = RandomVec(m * k, 1);
  const auto b = RandomVec(k * n, 2);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    GemmReference(m, n, k, a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  GemmGflops(state, m, n, k);
}
BENCHMARK(BM_GemmReferenceTable1)->DenseRange(0, 6)->UseRealTime();

// CaffeNet's fc layers at batch 16, as the batched fc layer multiplies
// them (y^T = W x^T: m = outputs, n = images, k = inputs).
//   0 fc6  4096 x 16 x 9216
//   1 fc7  4096 x 16 x 4096
//   2 fc8  1000 x 16 x 4096
constexpr std::int64_t kFcBatch16Shapes[][3] = {
    {4096, 16, 9216}, {4096, 16, 4096}, {1000, 16, 4096}};

// Gemm packs each A panel in place, just before the microkernel reads it.
void TimeGemm(benchmark::State& state, const std::int64_t (&shape)[3]) {
  const auto [m, n, k] = shape;
  const auto a = RandomVec(m * k, 1);
  const auto b = RandomVec(k * n, 2);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    Gemm(m, n, k, a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  GemmGflops(state, m, n, k);
}

// PackA hoisted out of the loop: the per-forward-pass reuse the conv layer
// gets when one weight pack serves a whole batch.
void TimePrepacked(benchmark::State& state, const std::int64_t (&shape)[3]) {
  const auto [m, n, k] = shape;
  const auto a = RandomVec(m * k, 1);
  const auto b = RandomVec(k * n, 2);
  const PackedA packed = PackA(m, k, a);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    GemmPacked(packed, n, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  GemmGflops(state, m, n, k);
}

void BM_GemmPackedTable1(benchmark::State& state) {
  TimeGemm(state, kTable1Shapes[state.range(0)]);
}
BENCHMARK(BM_GemmPackedTable1)->DenseRange(0, 6)->UseRealTime();

void BM_GemmPrepackedTable1(benchmark::State& state) {
  TimePrepacked(state, kTable1Shapes[state.range(0)]);
}
BENCHMARK(BM_GemmPrepackedTable1)->DenseRange(0, 6)->UseRealTime();

void BM_GemmPackedFcBatch16(benchmark::State& state) {
  TimeGemm(state, kFcBatch16Shapes[state.range(0)]);
}
BENCHMARK(BM_GemmPackedFcBatch16)->DenseRange(0, 2)->UseRealTime();

void BM_GemmPrepackedFcBatch16(benchmark::State& state) {
  TimePrepacked(state, kFcBatch16Shapes[state.range(0)]);
}
BENCHMARK(BM_GemmPrepackedFcBatch16)->DenseRange(0, 2)->UseRealTime();

void BM_SparseMultiply(benchmark::State& state) {
  // conv2-shaped: 256 x 1200 weights against 729 output pixels.
  const double sparsity = static_cast<double>(state.range(0)) / 100.0;
  const auto weights = RandomVec(256 * 1200, 3, sparsity);
  const CsrMatrix csr = CsrMatrix::FromDense(256, 1200, weights);
  const auto columns = RandomVec(1200 * 729, 4);
  std::vector<float> out(256 * 729);
  for (auto _ : state) {
    csr.MultiplyDense(columns, 729, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["nnz"] = static_cast<double>(csr.Nnz());
}
BENCHMARK(BM_SparseMultiply)->Arg(0)->Arg(50)->Arg(90)->UseRealTime();

void BM_Im2Col(benchmark::State& state) {
  ConvGeometry g{.in_channels = 48, .in_h = 27, .in_w = 27, .kernel_h = 5,
                 .kernel_w = 5, .stride = 1, .pad = 2};
  const auto image = RandomVec(g.in_channels * g.in_h * g.in_w, 5);
  std::vector<float> columns(
      static_cast<std::size_t>(g.PatchSize() * g.OutPixels()));
  for (auto _ : state) {
    Im2Col(g, image, columns);
    benchmark::DoNotOptimize(columns.data());
  }
}
BENCHMARK(BM_Im2Col);

void BM_ConvForward(benchmark::State& state) {
  const double prune = static_cast<double>(state.range(0)) / 100.0;
  nn::ConvLayer conv("c",
                     {.out_channels = 64, .kernel = 3, .stride = 1, .pad = 1,
                      .groups = 2},
                     32);
  Rng rng(6);
  conv.MutableWeights().FillGaussian(rng, 0.0f, 0.5f);
  conv.NotifyWeightsChanged();
  if (prune > 0.0) {
    pruning::MagnitudePruner pruner;
    pruner.Prune(conv, prune);
  }
  Tensor input(Shape{1, 32, 27, 27});
  input.FillGaussian(rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor out = conv.Forward({&input});
    benchmark::DoNotOptimize(out.Data().data());
  }
  state.counters["sparse_path"] = conv.UsesSparsePath() ? 1.0 : 0.0;
}
BENCHMARK(BM_ConvForward)->Arg(0)->Arg(60)->Arg(90)->UseRealTime();

void BM_Col2Im(benchmark::State& state) {
  ConvGeometry g{.in_channels = 48, .in_h = 27, .in_w = 27, .kernel_h = 5,
                 .kernel_w = 5, .stride = 1, .pad = 2};
  const auto columns = RandomVec(g.PatchSize() * g.OutPixels(), 8);
  std::vector<float> image(
      static_cast<std::size_t>(g.in_channels * g.in_h * g.in_w));
  for (auto _ : state) {
    Col2Im(g, columns, image);
    benchmark::DoNotOptimize(image.data());
  }
}
BENCHMARK(BM_Col2Im);

void BM_TrainerStep(benchmark::State& state) {
  nn::ModelConfig config;
  config.weight_seed = 9;
  config.num_classes = 8;
  nn::Network net = nn::BuildTinyCnn(config);
  train::SgdTrainer trainer(net);
  const data::SyntheticImageDataset dataset(Shape{3, 16, 16}, 8, 64, 9);
  const Tensor images = dataset.Batch(0, 16);
  const auto labels = dataset.BatchLabels(0, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.TrainBatch(images, labels));
  }
}
BENCHMARK(BM_TrainerStep)->UseRealTime();

void BM_TinyCnnForward(benchmark::State& state) {
  const nn::Network net = nn::BuildTinyCnn();
  Tensor input(Shape{4, 3, 16, 16});
  Rng rng(7);
  input.FillGaussian(rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor out = net.Forward(input);
    benchmark::DoNotOptimize(out.Data().data());
  }
}
BENCHMARK(BM_TinyCnnForward)->UseRealTime();

}  // namespace
