// Compress a model end-to-end: parse a model description (or use the
// built-in CaffeNet at reduced scale), prune + quantize + weight-share it,
// report memory/accuracy, and save the compressed variant to disk. The
// reloaded file must compute the saved network's outputs bit for bit;
// otherwise the program exits non-zero.
//
// Run: ./model_compressor [model.txt] [prune_ratio] [bits] [clusters]
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/rng.h"
#include "common/table.h"
#include "core/empirical_accuracy.h"
#include "data/synthetic_dataset.h"
#include "nn/model_parser.h"
#include "nn/model_zoo.h"
#include "nn/serialize.h"
#include "pruning/quantizer.h"
#include "pruning/sparsity.h"
#include "pruning/variant_generator.h"

int main(int argc, char** argv) {
  using namespace ccperf;
  const double prune_ratio = argc > 2 ? std::atof(argv[2]) : 0.4;
  const int bits = argc > 3 ? std::atoi(argv[3]) : 8;
  const int clusters = argc > 4 ? std::atoi(argv[4]) : 64;

  nn::Network base = [&] {
    if (argc > 1) return nn::ParseModelFile(argv[1], /*weight_seed=*/42);
    nn::ModelConfig config;
    config.channel_scale = 0.125;
    config.num_classes = 50;
    config.weight_seed = 42;
    return nn::BuildCaffeNet(config);
  }();
  std::cout << "model '" << base.Name() << "': " << base.LayerCount()
            << " layers, " << base.ParameterCount() / 1e6 << " M parameters\n"
            << "pipeline: magnitude-prune " << prune_ratio * 100.0
            << " % -> quantize " << bits << "-bit -> share " << clusters
            << " clusters\n\n";

  const data::SyntheticImageDataset dataset(
      Shape{base.InputShape().Dim(0), base.InputShape().Dim(1),
            base.InputShape().Dim(2)},
      base.OutputShape(1).Dim(1), 64, 17, 0.4f);
  const core::EmpiricalAccuracyEvaluator evaluator(base, dataset, 24, 4);

  Table table({"stage", "nonzero params", "memory (MB)", "Top-1 agree (%)",
               "Top-5 agree (%)"});
  auto report_stage = [&](const std::string& stage, const nn::Network& net,
                          double memory_bytes) {
    const pruning::SparsityReport sparsity = pruning::AnalyzeSparsity(net);
    const core::AccuracyResult agree = evaluator.Agreement(net);
    table.AddRow({stage, std::to_string(sparsity.total_nonzero),
                  Table::Num(memory_bytes / 1e6, 2),
                  Table::Num(agree.top1 * 100.0, 1),
                  Table::Num(agree.top5 * 100.0, 1)});
  };

  nn::Network net = base.Clone();
  report_stage("original", net,
               pruning::AnalyzeMemory(net, bits, clusters).dense_fp32_bytes);

  pruning::ApplyPlanInPlace(
      net, pruning::UniformPlan(net.WeightedLayerNames(), prune_ratio,
                                pruning::PrunerFamily::kMagnitude));
  report_stage("+ pruned", net,
               pruning::AnalyzeMemory(net, bits, clusters).sparse_csr_bytes);

  pruning::Quantizer(bits).ApplyToNetwork(net);
  report_stage("+ quantized", net,
               pruning::AnalyzeMemory(net, bits, clusters).quantized_bytes);

  pruning::WeightSharer(clusters).ApplyToNetwork(net);
  report_stage("+ shared", net,
               pruning::AnalyzeMemory(net, bits, clusters).shared_bytes);

  std::cout << table.Render();

  const std::string out_path = "compressed_" + base.Name() + ".ccpf";
  nn::SaveNetworkToFile(net, out_path);
  const nn::Network reloaded = nn::LoadNetworkFromFile(out_path);
  Tensor batch(Shape{4, net.InputShape().Dim(0), net.InputShape().Dim(1),
                     net.InputShape().Dim(2)});
  Rng rng(7);
  batch.FillGaussian(rng, 0.0f, 1.0f);
  const Tensor saved_out = net.Forward(batch);
  const Tensor reloaded_out = reloaded.Forward(batch);
  const bool same =
      saved_out.GetShape() == reloaded_out.GetShape() &&
      std::memcmp(saved_out.Data().data(), reloaded_out.Data().data(),
                  saved_out.Data().size_bytes()) == 0;
  std::cout << "\nsaved compressed model to " << out_path << " ("
            << reloaded.ParameterCount() / 1e6 << " M parameter slots)\n";
  if (!same) {
    std::cerr << "reload check FAILED: the reloaded model's outputs differ "
                 "from the saved model's\n";
    return 1;
  }
  std::cout << "reload verified: a batch of " << batch.GetShape().Dim(0)
            << " gives bitwise-identical outputs\n";
  return 0;
}
