// Workload `plan`: a capacity planner's sweep, Figs. 9-10 at scale, with no
// nn or tensor work. EnumerateFrontier runs over the ccperf_calc default
// CaffeNet space (the unpruned baseline plus 60 seeded random pruning
// variants, each float and int8, x 6 EC2 types x 14 counts x 6 batches x
// on-demand/spot x 3 checkpoint x 3 degradation policies) and over the same
// space with the 5-entry SDC-detection axis, back to back. Modules: core
// (enumerate, pareto_sweep), the analytic cost code in cloud, the pool.
#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "cloud/instance_catalog.h"
#include "cloud/model_profile.h"
#include "cloud/sdc.h"
#include "cloud/simulator.h"
#include "common/rng.h"
#include "common/threading.h"
#include "core/accuracy_model.h"
#include "core/enumerate.h"
#include "core/pareto_sweep.h"
#include "harness.h"
#include "pruning/variant_generator.h"

namespace perfbench {

namespace {

using ccperf::core::ArchitectureEvaluator;
using ccperf::core::ArchitectureSpace;
using ccperf::core::EnumerationOptions;
using ccperf::core::EnumerationResult;

// A set-up takes under a millisecond, so one vCPU's momentary speed (which
// swung 1.6x on a shared 4-vCPU VM) decides it; timing a few in every round
// spreads them over the run like the sweeps.
constexpr int kSetupsPerRound = 4;
constexpr int kMinRounds = 3;
constexpr std::size_t kRandomVariants = 60;
constexpr std::size_t kEvaluateSamples = 200000;

/// One space, its evaluator and the options ccperf_calc sweeps it with.
struct Sweep {
  std::string name;
  ArchitectureSpace space;
  std::unique_ptr<ArchitectureEvaluator> evaluator;
  EnumerationOptions options;
};

struct Planner {
  ccperf::cloud::CloudSimulator sim{ccperf::cloud::InstanceCatalog::AwsEc2()};
  Sweep sweeps[2];  // default space, SDC space
};

/// The ccperf_calc default space (tools/ccperf_calc.cpp BuildSpace) with
/// the variant generator seeded from the workload seed.
ArchitectureSpace BuildSpace(const ccperf::cloud::InstanceCatalog& catalog,
                             std::uint64_t seed, bool sdc) {
  const ccperf::cloud::ModelProfile profile = ccperf::cloud::CaffeNetProfile();
  const ccperf::core::CalibratedAccuracyModel accuracy =
      ccperf::core::CalibratedAccuracyModel::CaffeNet();
  std::vector<ccperf::pruning::PrunePlan> plans(1);  // unpruned baseline
  ccperf::Rng rng(seed);
  for (auto& plan : ccperf::pruning::RandomVariants(
           profile.layer_order, kRandomVariants, 0.6, 0.1, rng)) {
    plans.push_back(std::move(plan));
  }
  namespace core = ccperf::core;
  namespace cloud = ccperf::cloud;
  ArchitectureSpace space;
  space.AddVariants(core::BuildVariantSpecs(profile, accuracy, plans, true));
  for (const auto& type : catalog.Types()) space.AddInstanceType(type.name);
  std::vector<int> counts;
  for (int c = 1; c <= 14; ++c) counts.push_back(c);
  space.SetCounts(std::move(counts));
  space.SetBatches({0, 32, 64, 128, 256, 512});
  space.SetPurchaseOptions(
      {core::PurchaseOption::kOnDemand, core::PurchaseOption::kSpot});
  space.AddCheckpointOption({.name = "none", .enabled = false, .policy = {}});
  space.AddCheckpointOption(
      {.name = "periodic-300",
       .enabled = true,
       .policy = {.trigger = cloud::CheckpointTrigger::kPeriodic,
                  .interval_s = 300.0}});
  space.AddCheckpointOption(
      {.name = "adaptive",
       .enabled = true,
       .policy = {.trigger = cloud::CheckpointTrigger::kAdaptive}});
  space.AddDegradationOption({.name = "none"});
  space.AddDegradationOption({.name = "skip-frames",
                              .recompute_speedup = 2.0,
                              .accuracy_factor = 0.97});
  space.AddDegradationOption({.name = "half-res",
                              .recompute_speedup = 4.0,
                              .accuracy_factor = 0.90});
  if (sdc) {
    space.AddSdcOption({.name = "off", .policy = {}});
    space.AddSdcOption(
        {.name = "none", .policy = {.kind = cloud::SdcPolicyKind::kNone}});
    space.AddSdcOption(
        {.name = "abft", .policy = {.kind = cloud::SdcPolicyKind::kAbft}});
    space.AddSdcOption(
        {.name = "scrub", .policy = {.kind = cloud::SdcPolicyKind::kScrub}});
    space.AddSdcOption({.name = "reexec",
                        .policy = {.kind = cloud::SdcPolicyKind::kReexecSample,
                                   .sample_fraction = 0.1}});
  }
  return space;
}

std::unique_ptr<Planner> SetUp(std::uint64_t seed) {
  auto p = std::make_unique<Planner>();
  for (int s = 0; s < 2; ++s) {
    Sweep& sweep = p->sweeps[s];
    sweep.name = s == 0 ? "sweep" : "sweep_sdc";
    sweep.space = BuildSpace(p->sim.Catalog(), seed, s == 1);
    sweep.evaluator =
        std::make_unique<ArchitectureEvaluator>(p->sim, sweep.space);
    sweep.options.use_delivered = s == 1;
  }
  return p;
}

double Accuracy(const ccperf::core::ArchMetrics& m, bool delivered) {
  return delivered ? m.delivered_top5 : m.top5;
}

std::vector<std::uint64_t> Ids(const EnumerationResult& r) {
  std::vector<std::uint64_t> ids;
  for (const auto& point : r.frontier) ids.push_back(point.id);
  return ids;
}

/// True when no frontier row covers another (time and cost <=, accuracy
/// >=): a frontier holds no dominated rows and no duplicates.
bool NoRowDominated(const EnumerationResult& r, bool delivered) {
  const auto& f = r.frontier;
  for (std::size_t i = 0; i < f.size(); ++i) {
    for (std::size_t j = 0; j < f.size(); ++j) {
      if (i == j) continue;
      const auto& a = f[i].metrics;
      const auto& b = f[j].metrics;
      if (a.seconds <= b.seconds && a.cost_usd <= b.cost_usd &&
          Accuracy(a, delivered) >= Accuracy(b, delivered)) {
        return false;
      }
    }
  }
  return true;
}

/// Verifies one sweep against the first sweep of the same space.
class SweepCheck {
 public:
  bool Verify(const Sweep& sweep, const EnumerationResult& r,
              std::string& detail) {
    if (r.evaluated != sweep.space.Size()) {
      detail = "evaluated " + std::to_string(r.evaluated) + " of " +
               std::to_string(sweep.space.Size()) + " configurations";
      return false;
    }
    if (first_.empty()) {
      if (!NoRowDominated(r, sweep.options.use_delivered)) {
        detail = "a frontier row is dominated by another";
        return false;
      }
      first_ = Ids(r);
      feasible_ = r.feasible;
      peak_ = r.peak_candidates;
      return !first_.empty();
    }
    if (Ids(r) != first_ || r.feasible != feasible_ ||
        r.peak_candidates != peak_) {
      detail = "frontier differs from the first sweep";
      return false;
    }
    return true;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& Frontier() const {
    return first_;
  }
  [[nodiscard]] std::uint64_t Feasible() const { return feasible_; }
  [[nodiscard]] std::size_t Peak() const { return peak_; }

 private:
  std::vector<std::uint64_t> first_;
  std::uint64_t feasible_ = 0;
  std::size_t peak_ = 0;
};

/// Per-sweep figures of the traced replays.
struct ReplayStats {
  Samples blocks;  // evaluate blocks per sweep
  Samples pareto;  // SweepParetoFrontier3 calls per sweep
  Samples self;    // the rest of the sweep
  std::size_t calls = 0;
};

/// EnumerateFrontier's block loop replayed from public calls
/// (ArchitectureEvaluator::Evaluate, ParallelFor, SweepParetoFrontier3),
/// with one span per sweep, per evaluate block and per Pareto call.
EnumerationResult TracedReplay(const Sweep& sweep, Tracer& tracer,
                               ReplayStats& stats) {
  const EnumerationOptions& o = sweep.options;
  const std::uint64_t total = sweep.space.Size();
  const std::uint64_t rep = tracer.NewRepetition();
  const double sweep_start = Now();
  EnumerationResult result;
  std::vector<std::uint64_t> ids;
  std::vector<ccperf::core::ArchMetrics> rows;
  std::vector<ccperf::core::ArchMetrics> slot(o.block);
  std::vector<char> keep(o.block);
  std::vector<std::pair<double, double>> blocks;  // evaluate spans
  std::vector<std::pair<double, double>> paretos;
  double pareto_total = 0.0;
  for (std::uint64_t begin = 0; begin < total; begin += o.block) {
    const auto n =
        static_cast<std::size_t>(std::min<std::uint64_t>(o.block, total - begin));
    const double block_start = Now();
    ccperf::ParallelFor(0, n, [&](std::size_t i) {
      ccperf::core::ArchMetrics m;
      const bool ok = sweep.evaluator->Evaluate(begin + i, o.images, m) &&
                      m.seconds <= o.deadline_s && m.cost_usd <= o.budget_usd;
      keep[i] = ok ? 1 : 0;
      if (ok) slot[i] = m;
    });
    blocks.emplace_back(block_start, Now());
    result.evaluated += n;
    const std::size_t frontier_rows = ids.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (!keep[i]) continue;
      ids.push_back(begin + i);
      rows.push_back(slot[i]);
      ++result.feasible;
    }
    result.peak_candidates = std::max(result.peak_candidates, ids.size());
    if (ids.size() == frontier_rows) continue;
    const double pareto_start = Now();
    std::vector<double> time(ids.size()), cost(ids.size()), acc(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      time[i] = rows[i].seconds.value();
      cost[i] = rows[i].cost_usd.value();
      acc[i] = Accuracy(rows[i], o.use_delivered);
    }
    const std::vector<std::size_t> kept =
        ccperf::core::SweepParetoFrontier3(time, cost, acc);
    for (std::size_t k = 0; k < kept.size(); ++k) {
      ids[k] = ids[kept[k]];
      rows[k] = rows[kept[k]];
    }
    ids.resize(kept.size());
    rows.resize(kept.size());
    const double pareto_end = Now();
    paretos.emplace_back(pareto_start, pareto_end);
    pareto_total += pareto_end - pareto_start;
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    result.frontier.push_back({ids[i], rows[i]});
  }
  const std::int64_t parent =
      tracer.Span("plan." + sweep.name, "sweep", sweep_start, Now(), rep);
  double blocks_total = 0.0;
  for (const auto& [start, end] : blocks) {
    tracer.Span("evaluate_block", "core", start, end, rep, parent);
    blocks_total += end - start;
  }
  for (const auto& [start, end] : paretos) {
    tracer.Span("pareto", "core", start, end, rep, parent);
  }
  tracer.Count("frontier_rows", Now(), static_cast<double>(ids.size()), rep);
  stats.blocks.Add(blocks_total);
  stats.pareto.Add(pareto_total);
  stats.self.Add(Now() - sweep_start - blocks_total - pareto_total);
  stats.calls = blocks.size() + paretos.size();
  return result;
}

/// Serial Evaluate calls over kEvaluateSamples ids spread over the space.
double EvaluateNsPerConfig(const Sweep& sweep) {
  const std::uint64_t size = sweep.space.Size();
  ccperf::core::ArchMetrics m;
  const double start = Now();
  for (std::size_t i = 0; i < kEvaluateSamples; ++i) {
    // Infeasible ids (spot on a type without a spot market) count too.
    static_cast<void>(sweep.evaluator->Evaluate(i * size / kEvaluateSamples,
                                                sweep.options.images, m));
  }
  const double seconds = Now() - start;
  return seconds / static_cast<double>(kEvaluateSamples) * 1e9;
}

}  // namespace

void RunPlan(const Args& args, Ledger& ledger, Metrics& metrics) {
  Samples setup;
  const auto set_up = [&] {
    const Stopwatch watch;
    std::unique_ptr<Planner> p = SetUp(args.seed);
    watch.Stop(setup);
    return p;
  };
  const std::unique_ptr<Planner> planner = set_up();

  Tracer tracer(args.trace);
  SweepCheck checks[2];
  Samples wall[2];
  Samples traced_wall[2];
  ReplayStats replay[2];
  std::int64_t minflt = 0;
  double configs = 0.0;
  const auto sweep_once = [&](int s, Samples& into) {
    const Sweep& sweep = planner->sweeps[s];
    const std::int64_t faults = MinorFaults();
    const Stopwatch watch;
    const EnumerationResult r =
        ccperf::core::EnumerateFrontier(*sweep.evaluator, sweep.options);
    watch.Stop(into);
    minflt += MinorFaults() - faults;
    configs += static_cast<double>(sweep.space.Size());
    std::string detail;
    ledger.Operation(checks[s].Verify(sweep, r, detail), "plan." + sweep.name,
                     detail);
  };

  const double deadline = Now() + args.seconds;
  for (int s = 0; s < 2; ++s) {
    Samples warm_up;
    sweep_once(s, warm_up);
  }
  ProbeHost();
  minflt = 0;
  configs = 0.0;
  const double loop_start = Now();
  const double loop_cpu_start = ProcessCpuSeconds();
  for (int round = 0; round < kMinRounds || Now() < deadline; ++round) {
    for (int i = 0; i < kSetupsPerRound; ++i) set_up();
    ProbeHost();
    for (int s = 0; s < 2; ++s) {
      sweep_once(s, wall[s]);
      if (!args.trace) continue;
      const Sweep& sweep = planner->sweeps[s];
      const Stopwatch watch;
      const EnumerationResult r = TracedReplay(sweep, tracer, replay[s]);
      watch.Stop(traced_wall[s]);
      std::string detail;
      ledger.Operation(checks[s].Verify(sweep, r, detail),
                       "plan." + sweep.name + ".replay", detail);
    }
  }
  const double cpu_per_wall =
      (ProcessCpuSeconds() - loop_cpu_start) / (Now() - loop_start);
  WriteSamples(args.out_dir + "/samples.csv",
               {{"setup", &setup},
                {planner->sweeps[0].name, &wall[0]},
                {planner->sweeps[1].name, &wall[1]}});

  Observed observed;
  for (int s = 0; s < 2; ++s) {
    const std::string& name = planner->sweeps[s].name;
    std::vector<double> ids;
    for (const std::uint64_t id : checks[s].Frontier()) {
      ids.push_back(static_cast<double>(id));
    }
    observed.Set(name + ".frontier_ids", ids);
    observed.Set(name + ".feasible",
                 {static_cast<double>(checks[s].Feasible())});
    observed.Set(name + ".peak_candidates",
                 {static_cast<double>(checks[s].Peak())});
  }
  observed.Write(args.out_dir + "/observed.txt");
  CompareWithReference(
      args, observed,
      [](const std::string&, const std::vector<double>&, std::size_t) {
        return 0.0;
      },
      ledger);

  if (!args.trace) {
    // Per operation: a sweep; items: configurations, over the same sweeps.
    std::vector<double> sweep_cpu_s;
    std::vector<double> configs_per_cpu_s;
    for (int s = 0; s < 2; ++s) {
      const Sweep& sweep = planner->sweeps[s];
      const auto size = static_cast<double>(sweep.space.Size());
      Metrics::PrintTiming(sweep.name, wall[s], 1e3, "ms");
      sweep_cpu_s.push_back(wall[s].CpuMedian());
      configs_per_cpu_s.push_back(size / sweep_cpu_s.back());
      PrintDetail(sweep.name + "_configs_per_s", size / wall[s].CalmMedian(),
                  "configs/s");
    }
    Metrics::PrintTiming("set-up", setup, 1e3, "ms");
    AddEndToEnd({.op_cpu_s = GeoMean(sweep_cpu_s),
                 .items_per_cpu_s = GeoMean(configs_per_cpu_s),
                 .setup_s = setup.CalmMedian()},
                metrics);
    return;
  }

  double untraced_sum = 0.0;
  double traced_sum = 0.0;
  double calls = 0.0;
  std::vector<double> kernel, support, self, speedup;
  for (int s = 0; s < 2; ++s) {
    Sweep& sweep = planner->sweeps[s];
    const std::string suffix = s == 0 ? "" : "_sdc";
    PrintDetail("core.evaluate" + suffix + "_ns_per_config",
                EvaluateNsPerConfig(sweep), "ns");
    PrintDetail("core.pareto" + suffix + "_ms",
                replay[s].pareto.Median() * 1e3, "ms");
    Samples serial;
    sweep.options.serial = true;
    sweep_once(s, serial);
    sweep.options.serial = false;
    speedup.push_back(serial.CalmMedian() / wall[s].CalmMedian());
    PrintDetail("common.sweep" + suffix + "_pool_speedup", speedup.back(), "x");
    kernel.push_back(replay[s].blocks.Median());
    support.push_back(replay[s].pareto.Median());
    self.push_back(replay[s].self.Median());
    calls += static_cast<double>(replay[s].calls) / 2.0;
    untraced_sum += wall[s].Median();
    traced_sum += traced_wall[s].Median();
  }
  const SweepCheck& plain = checks[0];
  PrintDetail("core.frontier_rows", static_cast<double>(plain.Frontier().size()),
              "count");
  PrintDetail("core.peak_candidates", static_cast<double>(plain.Peak()),
              "count");
  PrintDetail("core.feasible_ratio",
              static_cast<double>(plain.Feasible()) /
                  static_cast<double>(planner->sweeps[0].space.Size()),
              "ratio");
  AddPerLayer({.kernel_s = GeoMean(kernel),
               .support_s = GeoMean(support),
               .self_s = GeoMean(self),
               .pool_speedup = GeoMean(speedup),
               .cpu_per_wall = cpu_per_wall,
               .minflt_per_item = static_cast<double>(minflt) / configs,
               .calls_per_op = calls,
               .trace_overhead_pct = (traced_sum / untraced_sum - 1.0) * 100.0},
              metrics);
  tracer.WriteChromeJson(args.out_dir + "/trace.json");
  std::cout << "  spans: " << args.out_dir << "/trace.json\n";
}

}  // namespace perfbench
