// Workload `infer`: the paper's measurement stage (§3.3, Figs. 3-5) on our
// own engine. One caller runs Network::Forward back to back on seeded
// synthetic images, round-robin over four execution paths so host drift
// hits them evenly: dense CaffeNet, CaffeNet magnitude-pruned by 85% (every
// weighted layer on CSR/BSR), int8 CaffeNet and dense GoogLeNet. Batch-1
// rounds and batch-16 rounds are interleaved over the whole run. Modules:
// tensor, nn and the common thread pool; pruning only during set-up.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "cloud/model_profile.h"
#include "common/rng.h"
#include "common/threading.h"
#include "harness.h"
#include "nn/conv_layer.h"
#include "nn/fc_layer.h"
#include "nn/flops.h"
#include "nn/model_zoo.h"
#include "nn/network.h"
#include "pruning/prune_plan.h"
#include "tensor/gemm.h"
#include "tensor/sparse_dispatch.h"

namespace perfbench {

namespace {

using ccperf::Tensor;
using ccperf::nn::LayerKind;
using ccperf::nn::LayerTiming;
using ccperf::nn::Network;

constexpr double kPruneRatio = 0.85;
constexpr int kSetups = 3;
constexpr std::int64_t kBatches[] = {1, 16};
// Batch-1 rounds per batch-16 round: a batch-16 round takes ~15x longer,
// so this gives batch 1 about half of the run.
constexpr int kBatch1Rounds = 6;
constexpr int kMinRounds = 3;
// A traced round runs every pass twice, so the traced run, whose figures
// are ungated, stops after fewer to stay well inside three minutes.
constexpr int kMinTracedRounds = 2;
// A reference digest value may move by this share of its image's logit
// norm: float re-association moves it far less, a wrong kernel by O(1)
// (the int8 path's digests sit 5e-4 to 1e-3 from the dense path's).
constexpr double kDigestTolerance = 1e-3;
constexpr int kDigestProjections = 4;

struct Path {
  std::string name;
  Network net;
  bool googlenet = false;
};

struct Models {
  std::vector<Path> paths;  // caffenet, caffenet_sparse, caffenet_int8,
                            // googlenet
  Tensor caffenet_input[2];   // batch 1, batch 16
  Tensor googlenet_input[2];
};

const Tensor& InputFor(const Models& m, const Path& p, int batch_index) {
  return p.googlenet ? m.googlenet_input[batch_index]
                     : m.caffenet_input[batch_index];
}

std::unique_ptr<Models> SetUp(std::uint64_t seed) {
  ccperf::Rng rng(seed);
  auto m = std::make_unique<Models>();
  ccperf::nn::ModelConfig caffe_config;
  caffe_config.weight_seed = rng.NextU64() | 1U;  // 0 would mean no weights
  ccperf::nn::ModelConfig google_config;
  google_config.weight_seed = rng.NextU64() | 1U;

  Network caffenet = ccperf::nn::BuildCaffeNet(caffe_config);
  Network sparse = ccperf::pruning::ApplyPlan(
      caffenet, ccperf::pruning::UniformPlan(
                    caffenet.WeightedLayerNames(), kPruneRatio,
                    ccperf::pruning::PrunerFamily::kMagnitude));
  Network int8 = caffenet.Clone();
  int8.SetInt8Execution(true);
  m->paths.push_back({"caffenet", std::move(caffenet)});
  m->paths.push_back({"caffenet_sparse", std::move(sparse)});
  m->paths.push_back({"caffenet_int8", std::move(int8)});
  m->paths.push_back(
      {"googlenet", ccperf::nn::BuildGoogLeNet(google_config), true});

  for (int b = 0; b < 2; ++b) {
    m->caffenet_input[b] = Tensor(ccperf::Shape{kBatches[b], 3, 227, 227});
    m->caffenet_input[b].FillGaussian(rng, 0.0f, 1.0f);
    m->googlenet_input[b] = Tensor(ccperf::Shape{kBatches[b], 3, 224, 224});
    m->googlenet_input[b].FillGaussian(rng, 0.0f, 1.0f);
  }
  return m;
}

ccperf::SparseKernel KernelOf(const ccperf::nn::Layer& layer) {
  if (const auto* conv = dynamic_cast<const ccperf::nn::ConvLayer*>(&layer)) {
    return conv->Kernel();
  }
  return dynamic_cast<const ccperf::nn::FcLayer&>(layer).Kernel();
}

/// Fails unless each path runs the kernels its name promises, so a
/// dispatch change cannot turn one path into a copy of another.
void AssertPaths(const Models& m, Ledger& ledger) {
  for (const Path& p : m.paths) {
    const bool sparse = p.name == "caffenet_sparse";
    const bool int8 = p.name == "caffenet_int8";
    ledger.Check(p.net.Int8Execution() == int8, "path." + p.name + ".int8",
                 int8 ? "Int8Execution() is false"
                      : "Int8Execution() is true on a float path");
    for (const std::string& name : p.net.WeightedLayerNames()) {
      const ccperf::SparseKernel kernel = KernelOf(*p.net.FindLayer(name));
      const bool on_sparse = kernel != ccperf::SparseKernel::kDense;
      ledger.Check(on_sparse == sparse, "path." + p.name + ".kernel",
                   name + " runs " + ccperf::ToString(kernel));
    }
  }
}

/// Per-image digest of a softmax output: the norm of its centred log
/// probabilities (= centred logits) and kDigestProjections fixed ±1
/// projections of them, scaled to unit-norm directions.
std::vector<double> Digest(const Tensor& out) {
  const std::int64_t batch = out.GetShape().Dim(0);
  const std::int64_t classes = out.NumElements() / batch;
  const std::span<const float> p = out.Data();
  std::vector<double> digest;
  std::vector<double> centred(static_cast<std::size_t>(classes));
  for (std::int64_t img = 0; img < batch; ++img) {
    double mean = 0.0;
    for (std::int64_t c = 0; c < classes; ++c) {
      const double v = std::log(std::max(
          1e-30, static_cast<double>(
                     p[static_cast<std::size_t>(img * classes + c)])));
      centred[static_cast<std::size_t>(c)] = v;
      mean += v;
    }
    mean /= static_cast<double>(classes);
    double norm = 0.0;
    for (double& v : centred) {
      v -= mean;
      norm += v * v;
    }
    digest.push_back(std::sqrt(norm));
    ccperf::Rng signs(0x5eedULL);
    for (int k = 0; k < kDigestProjections; ++k) {
      double proj = 0.0;
      for (const double v : centred) {
        proj += (signs.NextU64() & 1U) != 0 ? v : -v;
      }
      digest.push_back(proj / std::sqrt(static_cast<double>(classes)));
    }
  }
  return digest;
}

/// The first output of each (path, batch) is the one every repeat must
/// equal bitwise.
struct OutputCheck {
  std::vector<float> first;

  bool Verify(const Tensor& out, std::string& detail) {
    const std::span<const float> d = out.Data();
    for (const float v : d) {
      if (!std::isfinite(v)) {
        detail = "non-finite output";
        return false;
      }
    }
    if (first.empty()) {
      first.assign(d.begin(), d.end());
      return true;
    }
    if (first.size() != d.size() ||
        std::memcmp(first.data(), d.data(), d.size() * sizeof(float)) != 0) {
      detail = "output differs bitwise from the first pass";
      return false;
    }
    return true;
  }
};

std::string OpName(const Path& p, int batch_index) {
  return p.name + "_b" + std::to_string(kBatches[batch_index]);
}

int KindBucket(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConvolution: return 0;
    case LayerKind::kFullyConnected: return 1;
    case LayerKind::kLRN: return 2;
    case LayerKind::kMaxPool:
    case LayerKind::kAvgPool: return 3;
    default: return 4;  // ReLU, concat, dropout, softmax
  }
}
constexpr const char* kBuckets[] = {"conv", "fc", "lrn", "pool", "other"};

/// Samples of one (path, batch): untraced wall times, and in the traced
/// run the traced passes' per-kind / per-layer breakdown.
struct OpStats {
  Samples wall;
  Samples traced_wall;
  Samples serial_wall;
  Samples kind[5];
  Samples kernel;   // weighted layers
  Samples support;  // weightless layers
  Samples self;
  std::int64_t traced_minflt = 0;
  std::int64_t traced_images = 0;
  std::size_t layers_per_pass = 0;
  Samples minflt;
  std::map<std::string, Samples> layer;
  std::vector<std::string> layer_order;
  std::map<std::string, LayerKind> layer_kind;
  OutputCheck output;
};

void TracedPass(const Path& p, const Tensor& input, int b, OpStats& s,
                Tracer& tracer, Ledger& ledger) {
  std::vector<LayerTiming> timings;
  const std::int64_t faults_before = MinorFaults();
  const double start = Now();
  const Tensor out = p.net.Forward(input, &timings);
  const double end = Now();
  const std::int64_t faults = MinorFaults() - faults_before;
  std::string detail;
  ledger.Operation(s.output.Verify(out, detail), "infer." + OpName(p, b),
                   detail);
  s.traced_wall.Add(end - start);
  s.minflt.Add(static_cast<double>(faults) /
               static_cast<double>(kBatches[b]));

  const std::uint64_t rep = tracer.NewRepetition();
  const std::int64_t parent =
      tracer.Span(OpName(p, b) + ".forward", "forward", start, end, rep);
  tracer.Count("minflt", end, static_cast<double>(faults), rep);
  double kind_sum[5] = {};
  double offset = start;
  for (const LayerTiming& t : timings) {
    if (t.kind == LayerKind::kInput) continue;
    tracer.Span(t.name, ccperf::nn::LayerKindName(t.kind), offset,
                offset + t.seconds, rep, parent);
    offset += t.seconds;
    kind_sum[KindBucket(t.kind)] += t.seconds;
    if (s.layer.count(t.name) == 0) {
      s.layer_order.push_back(t.name);
      s.layer_kind[t.name] = t.kind;
    }
    s.layer[t.name].Add(t.seconds);
  }
  double layer_sum = 0.0;
  for (int k = 0; k < 5; ++k) {
    s.kind[k].Add(kind_sum[k]);
    layer_sum += kind_sum[k];
  }
  s.kernel.Add(kind_sum[0] + kind_sum[1]);
  s.support.Add(layer_sum - kind_sum[0] - kind_sum[1]);
  s.self.Add((end - start) - layer_sum);
  s.traced_minflt += faults;
  s.traced_images += kBatches[b];
  s.layers_per_pass = s.layer_order.size();
}

/// One verified pass, timed into `into`.
void UntracedPass(const Path& p, const Tensor& input, int b, OpStats& s,
                  Samples& into, Ledger& ledger) {
  const Stopwatch watch;
  const Tensor out = p.net.Forward(input);
  watch.Stop(into);
  std::string detail;
  ledger.Operation(s.output.Verify(out, detail), "infer." + OpName(p, b),
                   detail);
}

/// GemmPacked on the CaffeNet conv2 group shape (M=128, N=729, K=1200):
/// the packed-GEMM ceiling the per-kind GFLOP/s sit beside.
double GemmCeilingGflops(std::uint64_t seed) {
  constexpr std::int64_t m = 128, n = 729, k = 1200;
  ccperf::Rng rng(seed);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (float& v : a) v = rng.NextFloat(-1.0f, 1.0f);
  for (float& v : b) v = rng.NextFloat(-1.0f, 1.0f);
  const ccperf::PackedA packed = ccperf::PackA(m, k, a);
  Samples s;
  for (int rep = 0; rep < 60; ++rep) {
    const double start = Now();
    ccperf::GemmPacked(packed, n, b, c);
    if (rep >= 10) s.Add(Now() - start);
  }
  return 2.0 * m * n * k / s.Median() / 1e9;
}

/// Measured share of each weighted layer of a batch-1 pass beside the
/// calibrated Fig. 3 share (docs/CALIBRATION.md §3). A layer is flagged
/// when the two differ by more than 2x either way.
void WriteFig3(const std::string& path, const std::string& model,
               const OpStats& s, const ccperf::cloud::ModelProfile& profile,
               std::ofstream& out) {
  double total = 0.0;
  for (const auto& [name, samples] : s.layer) total += samples.Median();
  double weighted = 0.0;
  int flagged = 0;
  for (const std::string& name : s.layer_order) {
    const auto it = profile.layers.find(name);
    if (it == profile.layers.end()) continue;
    const double measured = s.layer.at(name).Median() / total;
    weighted += measured;
    const double calibrated = it->second.time_share;
    const double ratio = measured / calibrated;
    const bool disagrees = ratio > 2.0 || ratio < 0.5;
    flagged += disagrees ? 1 : 0;
    out << model << "," << name << "," << Fmt(measured, 4) << ","
        << Fmt(calibrated, 4) << "," << (disagrees ? "disagrees" : "agrees")
        << "\n";
  }
  const double residual = 1.0 - weighted;
  const double ratio = residual / profile.residual_share;
  const bool disagrees = ratio > 2.0 || ratio < 0.5;
  flagged += disagrees ? 1 : 0;
  out << model << ",(weightless layers)," << Fmt(residual, 4) << ","
      << Fmt(profile.residual_share, 4) << ","
      << (disagrees ? "disagrees" : "agrees") << "\n";
  std::cout << "  fig3 " << model << ": " << flagged
            << " layer shares disagree with the calibration by >2x (see "
            << path << ")\n";
}

}  // namespace

void RunInfer(const Args& args, Ledger& ledger, Metrics& metrics) {
  // Set-up is repeated and its median reported, so work moved into it
  // shows; each earlier copy is released before the next is built.
  Samples setup;
  std::unique_ptr<Models> models;
  for (int i = 0; i < kSetups; ++i) {
    models.reset();
    const double start = Now();
    models = SetUp(args.seed);
    setup.Add(Now() - start);
  }
  AssertPaths(*models, ledger);

  Tracer tracer(args.trace);
  std::vector<OpStats> stats(models->paths.size() * 2);
  const auto stats_of = [&](std::size_t path, int b) -> OpStats& {
    return stats[path * 2 + static_cast<std::size_t>(b)];
  };

  // Warm-up: one verified pass of each path at each batch, not reported.
  for (int b = 0; b < 2; ++b) {
    for (std::size_t i = 0; i < models->paths.size(); ++i) {
      const Path& p = models->paths[i];
      Samples warm_up;
      UntracedPass(p, InputFor(*models, p, b), b, stats_of(i, b), warm_up,
                   ledger);
    }
  }
  const auto round_of = [&](int b) {
    for (std::size_t i = 0; i < models->paths.size(); ++i) {
      const Path& p = models->paths[i];
      const Tensor& input = InputFor(*models, p, b);
      OpStats& s = stats_of(i, b);
      UntracedPass(p, input, b, s, s.wall, ledger);
      if (args.trace) TracedPass(p, input, b, s, tracer, ledger);
    }
  };
  // Each round is kBatch1Rounds batch-1 rounds, then a batch-16 round, so
  // both batch sizes sample the whole run.
  ProbeHost();
  const double deadline = Now() + args.seconds;
  const double loop_start = Now();
  const double loop_cpu_start = ProcessCpuSeconds();
  const int min_rounds = args.trace ? kMinTracedRounds : kMinRounds;
  for (int round = 0; round < min_rounds || Now() < deadline; ++round) {
    ProbeHost();
    for (int r = 0; r < kBatch1Rounds; ++r) round_of(0);
    ProbeHost();
    round_of(1);
  }
  const double cpu_per_wall =
      (ProcessCpuSeconds() - loop_cpu_start) / (Now() - loop_start);

  std::vector<std::pair<std::string, const Samples*>> raw = {
      {"setup", &setup}};
  for (std::size_t i = 0; i < models->paths.size(); ++i) {
    for (int b = 0; b < 2; ++b) {
      raw.emplace_back(OpName(models->paths[i], b), &stats_of(i, b).wall);
    }
  }
  WriteSamples(args.out_dir + "/samples.csv", raw);

  Observed observed;
  for (std::size_t i = 0; i < models->paths.size(); ++i) {
    for (int b = 0; b < 2; ++b) {
      const OpStats& s = stats_of(i, b);
      const Path& p = models->paths[i];
      const Tensor first(ccperf::Shape{kBatches[b], 1000},
                         std::vector<float>(s.output.first));
      observed.Set(OpName(p, b) + ".digest", Digest(first));
    }
  }
  observed.Write(args.out_dir + "/observed.txt");
  CompareWithReference(
      args, observed,
      [](const std::string&, const std::vector<double>& expected,
         std::size_t index) {
        const std::size_t per_image = 1 + kDigestProjections;
        return kDigestTolerance * expected[index / per_image * per_image];
      },
      ledger);

  if (!args.trace) {
    // Per operation: batch-1 passes; items: images at batch 16.
    std::vector<double> b1_cpu_s;
    std::vector<double> b16_img_per_cpu_s;
    const auto batch16 = static_cast<double>(kBatches[1]);
    for (std::size_t i = 0; i < models->paths.size(); ++i) {
      const Path& p = models->paths[i];
      const Samples& b1 = stats_of(i, 0).wall;
      const Samples& b16 = stats_of(i, 1).wall;
      Metrics::PrintTiming(p.name + "_b1 forward", b1, 1e3, "ms");
      Metrics::PrintTiming(p.name + "_b16 forward", b16, 1e3, "ms");
      b1_cpu_s.push_back(b1.CpuMedian());
      b16_img_per_cpu_s.push_back(batch16 / b16.CpuMedian());
      PrintDetail(p.name + "_b1_ms", b1.CalmMedian() * 1e3, "ms");
      PrintDetail(p.name + "_b16_img_s", batch16 / b16.CalmMedian(), "img/s");
    }
    Metrics::PrintTiming("set-up", setup, 1.0, "s");
    AddEndToEnd({.op_cpu_s = GeoMean(b1_cpu_s),
                 .items_per_cpu_s = GeoMean(b16_img_per_cpu_s),
                 .setup_s = setup.CalmMedian()},
                metrics);
    return;
  }

  // Traced run only: serial passes for the pool speed-up, the GEMM ceiling,
  // the per-layer table and the Fig. 3 comparison.
  for (int b = 0; b < 2; ++b) {
    for (std::size_t i = 0; i < models->paths.size(); ++i) {
      const Path& p = models->paths[i];
      OpStats& s = stats_of(i, b);
      ccperf::ScopedSerial serial;
      for (int rep = 0; rep < (b == 0 ? 3 : 1); ++rep) {
        UntracedPass(p, InputFor(*models, p, b), b, s, s.serial_wall,
                     ledger);
      }
    }
  }
  const double ceiling = GemmCeilingGflops(args.seed);

  double untraced_sum = 0.0;
  double traced_sum = 0.0;
  std::int64_t traced_minflt = 0;
  std::int64_t traced_images = 0;
  double calls = 0.0;  // layers per pass, mean over the operations
  std::vector<double> kernel, support, self, speedup;
  std::ofstream layers(args.out_dir + "/layers.csv");
  layers << "op,layer,kind,median_ms,p10_ms,p90_ms,share,samples\n";
  for (std::size_t i = 0; i < models->paths.size(); ++i) {
    const Path& p = models->paths[i];
    for (int b = 0; b < 2; ++b) {
      const OpStats& s = stats_of(i, b);
      const std::string op = p.name + "_b" + std::to_string(kBatches[b]);
      const ccperf::nn::NetworkCostReport cost =
          ccperf::nn::AnalyzeNetwork(p.net, kBatches[b]);
      for (int k = 0; k < 5; ++k) {
        PrintDetail("nn." + op + "." + kBuckets[k] + "_ms",
                    s.kind[k].Median() * 1e3, "ms");
      }
      PrintDetail("nn." + op + ".network_self_ms", s.self.Median() * 1e3, "ms");
      PrintDetail("tensor." + op + ".conv_gflops",
                  cost.FlopsOfKind(LayerKind::kConvolution) /
                      s.kind[0].Median() / 1e9,
                  "GFLOP/s");
      PrintDetail("tensor." + op + ".fc_gflops",
                  cost.FlopsOfKind(LayerKind::kFullyConnected) /
                      s.kind[1].Median() / 1e9,
                  "GFLOP/s");
      PrintDetail("nn." + op + ".minflt_per_image", s.minflt.Median(), "count");
      speedup.push_back(s.serial_wall.CalmMedian() / s.wall.CalmMedian());
      PrintDetail("common." + op + ".pool_speedup", speedup.back(), "x");
      kernel.push_back(s.kernel.Median());
      support.push_back(s.support.Median());
      self.push_back(s.self.Median());
      calls += static_cast<double>(s.layers_per_pass) /
               static_cast<double>(stats.size());
      traced_minflt += s.traced_minflt;
      traced_images += s.traced_images;
      untraced_sum += s.wall.Median();
      traced_sum += s.traced_wall.Median();

      double total = 0.0;
      for (const auto& [name, samples] : s.layer) total += samples.Median();
      for (const std::string& name : s.layer_order) {
        const Samples& l = s.layer.at(name);
        layers << op << "," << name << ","
               << ccperf::nn::LayerKindName(s.layer_kind.at(name)) << ","
               << Fmt(l.Median() * 1e3) << "," << Fmt(l.Percentile(10) * 1e3)
               << "," << Fmt(l.Percentile(90) * 1e3) << ","
               << Fmt(l.Median() / total, 4) << "," << l.Count() << "\n";
      }
    }
  }
  PrintDetail("tensor.gemm_ceiling_gflops", ceiling, "GFLOP/s");
  AddPerLayer({.kernel_s = GeoMean(kernel),
               .support_s = GeoMean(support),
               .self_s = GeoMean(self),
               .pool_speedup = GeoMean(speedup),
               .cpu_per_wall = cpu_per_wall,
               .minflt_per_item = static_cast<double>(traced_minflt) /
                                  static_cast<double>(traced_images),
               .calls_per_op = calls,
               .trace_overhead_pct = (traced_sum / untraced_sum - 1.0) * 100.0},
              metrics);

  const std::string fig3_path = args.out_dir + "/fig3.csv";
  std::ofstream fig3(fig3_path);
  fig3 << "model,layer,measured_share,calibrated_share,verdict\n";
  WriteFig3(fig3_path, "caffenet", stats_of(0, 0),
            ccperf::cloud::CaffeNetProfile(), fig3);
  WriteFig3(fig3_path, "googlenet", stats_of(3, 0),
            ccperf::cloud::GoogLeNetProfile(), fig3);
  tracer.WriteChromeJson(args.out_dir + "/trace.json");
  std::cout << "  spans: " << args.out_dir << "/trace.json, layer table: "
            << args.out_dir << "/layers.csv\n";
}

}  // namespace perfbench
