// Extension: scaling of the sorted-sweep Pareto filter and the streamed
// architecture-space enumeration engine (core/pareto_sweep.h,
// core/enumerate.h).
//
// Two acceptance gates, both exit-nonzero so scripts/run_all.sh fails the
// build when the engine regresses:
//
//  1. Filter scaling — SweepParetoFrontier3 throughput (points/s) on seeded
//     uniform clouds from 10^3 to 10^7 points, differential against the
//     O(n^2) ParetoFrontier3 oracle up to 10^5 (beyond that the oracle is
//     the bottleneck, which is the point). Gate: >= 10x speedup over the
//     oracle at 10^5 points, identical index sets everywhere it runs.
//
//  2. Engine throughput — EnumerateFrontier over the full ccperf_calc
//     default space (~1.1M configurations: 122 variants x 6 types x 14
//     counts x 6 batches x 2 purchase x 3 checkpoint x 3 degradation).
//     Gates: wall clock under a generous ceiling (the run takes ~0.12 s on
//     a 4-vCPU Xeon VM; the ceiling catches accidental O(space) frontier
//     rebuilds), and peak candidate rows bounded by O(frontier + block) —
//     the memory contract that lets the engine stream arbitrarily large
//     spaces.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cloud/instance_catalog.h"
#include "cloud/model_profile.h"
#include "cloud/simulator.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/accuracy_model.h"
#include "core/enumerate.h"
#include "core/pareto.h"
#include "core/pareto_sweep.h"
#include "pruning/variant_generator.h"

namespace {

using namespace ccperf;

struct Cloudset {
  std::vector<double> time;
  std::vector<double> cost;
  std::vector<double> accuracy;
};

Cloudset UniformCloud(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Cloudset cloud;
  cloud.time.resize(n);
  cloud.cost.resize(n);
  cloud.accuracy.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    cloud.time[i] = rng.NextDouble() * 10.0;
    cloud.cost[i] = rng.NextDouble() * 100.0;
    cloud.accuracy[i] = rng.NextDouble();
  }
  return cloud;
}

/// The ccperf_calc default space (see tools/ccperf_calc.cpp BuildSpace).
core::ArchitectureSpace DefaultSpace(
    const cloud::InstanceCatalog& catalog, const cloud::ModelProfile& profile,
    const core::CalibratedAccuracyModel& accuracy) {
  std::vector<pruning::PrunePlan> plans;
  plans.emplace_back();
  Rng rng(2020);
  for (auto& plan :
       pruning::RandomVariants(profile.layer_order, 60, 0.6, 0.1, rng)) {
    plans.push_back(std::move(plan));
  }
  core::ArchitectureSpace space;
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
  return space;
}

}  // namespace

int main() {
  bench::Banner(
      "Extension — Enumeration Engine Scaling",
      "Sorted-sweep Pareto filter throughput 10^3..10^7 points (vs the "
      "O(n^2) oracle up to 10^5), then the streamed EnumerateFrontier over "
      "the ~1.1M-config ccperf_calc default space.");

  // --- gate 1: filter scaling ----------------------------------------------
  constexpr std::size_t kOracleCap = 100'000;   // oracle timed up to here
  constexpr double kMinSpeedupAt1e5 = 10.0;     // acceptance bar
  Table table({"points", "sweep s", "points/s", "frontier", "oracle s",
               "speedup"});
  auto csv = bench::OpenCsv(
      "ext_enumeration_scale.csv",
      {"points", "sweep_seconds", "points_per_second", "frontier_size",
       "oracle_seconds", "speedup_vs_oracle"});
  double speedup_at_cap = 0.0;
  bool filters_agree = true;
  for (const std::size_t n :
       {std::size_t{1'000}, std::size_t{10'000}, std::size_t{100'000},
        std::size_t{1'000'000}, std::size_t{10'000'000}}) {
    const Cloudset cloud = UniformCloud(n, 0xCA9E + n);
    Timer sweep_timer;
    const auto sweep =
        core::SweepParetoFrontier3(cloud.time, cloud.cost, cloud.accuracy);
    const double sweep_s = sweep_timer.ElapsedSeconds();
    const double pps = static_cast<double>(n) / sweep_s;

    double oracle_s = 0.0;
    double speedup = 0.0;
    if (n <= kOracleCap) {
      Timer oracle_timer;
      const auto oracle =
          core::ParetoFrontier3(cloud.time, cloud.cost, cloud.accuracy);
      oracle_s = oracle_timer.ElapsedSeconds();
      speedup = oracle_s / sweep_s;
      if (n == kOracleCap) speedup_at_cap = speedup;
      if (sweep != oracle) {
        filters_agree = false;
        std::cout << "  [FAIL] sweep/oracle index sets differ at n=" << n
                  << "\n";
      }
    }
    table.AddRow({std::to_string(n), Table::Num(sweep_s, 4),
                  Table::Num(pps, 0), std::to_string(sweep.size()),
                  n <= kOracleCap ? Table::Num(oracle_s, 4) : "-",
                  n <= kOracleCap ? Table::Num(speedup, 1) + "x" : "-"});
    csv.AddRow({std::to_string(n), Table::Num(sweep_s, 6), Table::Num(pps, 0),
                std::to_string(sweep.size()),
                n <= kOracleCap ? Table::Num(oracle_s, 6) : "",
                n <= kOracleCap ? Table::Num(speedup, 2) : ""});
  }
  std::cout << table.Render() << "\n";
  bench::Checkpoint("sweep vs O(n^2) oracle speedup at 10^5 points",
                    ">= 10x (acceptance bar)",
                    Table::Num(speedup_at_cap, 1) + "x");
  if (!filters_agree) {
    std::cout << "  [FAIL] sweep disagrees with the oracle\n";
    return 1;
  }
  if (speedup_at_cap < kMinSpeedupAt1e5) {
    std::cout << "  [FAIL] sweep below the 10x acceptance bar\n";
    return 1;
  }

  // --- gate 2: streamed enumeration over the full default space ------------
  constexpr double kWallCeilingS = 120.0;  // ~0.12 s typical; 120 s = broken
  const cloud::InstanceCatalog catalog = cloud::InstanceCatalog::AwsEc2();
  const cloud::CloudSimulator sim(catalog);
  const cloud::ModelProfile profile = cloud::CaffeNetProfile();
  const core::CalibratedAccuracyModel accuracy =
      core::CalibratedAccuracyModel::CaffeNet();
  const core::ArchitectureSpace space =
      DefaultSpace(catalog, profile, accuracy);
  const core::ArchitectureEvaluator evaluator(sim, space);
  core::EnumerationOptions options;  // 1M images, block 65536

  Timer engine_timer;
  const core::EnumerationResult result =
      core::EnumerateFrontier(evaluator, options);
  const double engine_s = engine_timer.ElapsedSeconds();
  const double configs_per_s =
      static_cast<double>(result.evaluated) / engine_s;

  std::cout << "  space: " << space.Size() << " configurations, evaluated "
            << result.evaluated << " in " << Table::Num(engine_s, 2)
            << " s (" << Table::Num(configs_per_s, 0)
            << " configs/s), frontier " << result.frontier.size()
            << ", peak candidate rows " << result.peak_candidates << "\n";
  csv.AddRow({std::to_string(result.evaluated), Table::Num(engine_s, 3),
              Table::Num(configs_per_s, 0),
              std::to_string(result.frontier.size()), "",
              ""});
  csv.Close();

  bench::Checkpoint("1.1M-config enumeration wall clock",
                    "< " + Table::Num(kWallCeilingS, 0) + " s (ceiling)",
                    Table::Num(engine_s, 2) + " s");
  if (space.Size() < 1'000'000) {
    std::cout << "  [FAIL] default space shrank below 10^6 configurations\n";
    return 1;
  }
  if (engine_s >= kWallCeilingS) {
    std::cout << "  [FAIL] enumeration exceeded the wall-clock ceiling\n";
    return 1;
  }
  // Memory contract: candidates never exceed one block plus the running
  // frontier (frontier size bounded here by 16x the final frontier — the
  // running frontier can briefly exceed the final one, never by orders of
  // magnitude on this space).
  const std::size_t peak_bound =
      options.block + 16 * (result.frontier.size() + 64);
  bench::Checkpoint("peak candidate rows (memory O(frontier + block))",
                    "<= " + std::to_string(peak_bound),
                    std::to_string(result.peak_candidates));
  if (result.peak_candidates > peak_bound) {
    std::cout << "  [FAIL] enumeration buffered more than O(frontier + "
                 "block) rows\n";
    return 1;
  }

  std::cout << "\nCSV: bench_results/ext_enumeration_scale.csv\n";
  return 0;
}
