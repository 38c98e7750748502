// Tests of the architecture-space enumeration engine (core/enumerate.h):
// encode/decode inverses, metric-registry contracts, evaluator parity with
// CloudSimulator::Run and the no-checkpoint restart expectation, every row
// pinned by CRC, one id at a time and in ranges of any length,
// streamed-frontier equality with a materialize-everything oracle,
// block-size invariance, and bitwise parallel-vs-serial equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "cloud/checkpoint.h"
#include "cloud/instance_catalog.h"
#include "cloud/model_profile.h"
#include "cloud/pricing.h"
#include "cloud/resource_config.h"
#include "cloud/simulator.h"
#include "common/check.h"
#include "common/snapshot.h"
#include "core/accuracy_model.h"
#include "core/enumerate.h"
#include "core/metrics.h"
#include "core/pareto.h"
#include "pruning/prune_plan.h"

namespace ccperf::core {
namespace {

constexpr RatePerHour kRate{0.05};  // spot preemptions per instance-hour
constexpr Seconds kRestart{60.0};   // reprovisioning seconds per preemption

/// Small but fully heterogeneous space: every axis has >= 2 entries.
ArchitectureSpace SmallSpace(const cloud::ModelProfile& profile,
                             const CalibratedAccuracyModel& accuracy) {
  std::vector<pruning::PrunePlan> plans;
  plans.emplace_back();  // unpruned baseline
  plans.push_back(pruning::UniformPlan({"conv2", "conv3"}, 0.5));
  ArchitectureSpace space;
  space.AddVariants(BuildVariantSpecs(profile, accuracy, plans,
                                      /*include_int8=*/true));
  space.AddInstanceType("p2.xlarge");
  space.AddInstanceType("g3.8xlarge");
  space.SetCounts({1, 2, 3});
  space.SetBatches({0, 64});
  space.SetPurchaseOptions(
      {PurchaseOption::kOnDemand, PurchaseOption::kSpot});
  space.AddCheckpointOption({.name = "none", .enabled = false, .policy = {}});
  space.AddCheckpointOption(
      {.name = "periodic-300",
       .enabled = true,
       .policy = {.trigger = cloud::CheckpointTrigger::kPeriodic,
                  .interval_s = 300.0}});
  space.AddCheckpointOption(
      {.name = "warn",
       .enabled = true,
       .policy = {.trigger = cloud::CheckpointTrigger::kOnPreemptionWarning}});
  space.AddDegradationOption({.name = "none"});
  space.AddDegradationOption({.name = "skip-frames",
                              .recompute_speedup = 2.0,
                              .accuracy_factor = 0.95});
  return space;
}

struct Fixture {
  cloud::InstanceCatalog catalog = cloud::InstanceCatalog::AwsEc2();
  cloud::CloudSimulator sim{catalog};
  cloud::ModelProfile profile = cloud::CaffeNetProfile();
  CalibratedAccuracyModel accuracy = CalibratedAccuracyModel::CaffeNet();
  ArchitectureSpace space = SmallSpace(profile, accuracy);
  ArchitectureEvaluator evaluator{sim, space, kRate, kRestart};
};

bool BitwiseEqual(const ArchMetrics& a, const ArchMetrics& b) {
  return std::memcmp(&a, &b, sizeof(ArchMetrics)) == 0;
}

// --- space -------------------------------------------------------------------

TEST(ArchitectureSpace, SizeIsAxisProduct) {
  Fixture f;
  // 4 variants x 2 types x 3 counts x 2 batches x 2 purchase x 3 ckpt x 2 degr
  EXPECT_EQ(f.space.Size(), 4u * 2 * 3 * 2 * 2 * 3 * 2);
}

TEST(ArchitectureSpace, EncodeDecodeRoundTripAllIds) {
  Fixture f;
  std::set<std::uint64_t> seen;
  for (std::uint64_t id = 0; id < f.space.Size(); ++id) {
    const AxisPoint p = f.space.Decode(id);
    EXPECT_EQ(f.space.Encode(p), id);
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), f.space.Size());
  EXPECT_THROW((void)f.space.Decode(f.space.Size()), CheckError);
}

TEST(ArchitectureSpace, DescribeNamesEveryAxis) {
  Fixture f;
  AxisPoint p;
  p.variant = 1;  // nonpruned+int8 (int8 twin follows its float plan)
  p.type = 1;
  p.count = 2;
  p.batch = 1;
  p.purchase = 1;
  p.checkpoint = 1;
  p.degradation = 1;
  const std::string text = f.space.Describe(f.space.Encode(p));
  EXPECT_NE(text.find("nonpruned+int8"), std::string::npos) << text;
  EXPECT_NE(text.find("3xg3.8xlarge"), std::string::npos) << text;
  EXPECT_NE(text.find("batch=64"), std::string::npos) << text;
  EXPECT_NE(text.find("spot"), std::string::npos) << text;
  EXPECT_NE(text.find("ckpt=periodic-300"), std::string::npos) << text;
  EXPECT_NE(text.find("degr=skip-frames"), std::string::npos) << text;
}

TEST(ArchitectureSpace, ValidateRejectsEmptyAxes) {
  ArchitectureSpace space;
  EXPECT_THROW(space.Validate(), CheckError);
}

// --- metric registry ---------------------------------------------------------

TEST(MetricRegistryTest, StandardMetricsPresent) {
  const MetricRegistry& registry = MetricRegistry::Standard();
  for (const char* name :
       {"time_h", "cost_usd", "top1", "top5", "goodput", "interruption_risk",
        "tar", "car", "delivered_top1", "sdc_escape_rate",
        "detection_overhead"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
  EXPECT_EQ(registry.All().size(), 11u);
  EXPECT_TRUE(registry.Find("cost_usd").lower_is_better);
  EXPECT_FALSE(registry.Find("top5").lower_is_better);
  EXPECT_FALSE(registry.Find("delivered_top1").lower_is_better);
  EXPECT_TRUE(registry.Find("sdc_escape_rate").lower_is_better);
  EXPECT_TRUE(registry.Find("detection_overhead").lower_is_better);
}

TEST(MetricRegistryTest, DuplicateRegistrationThrows) {
  MetricRegistry registry;
  const auto extract = [](const ArchMetrics& m) { return m.cost_usd.value(); };
  registry.Register("cost", "run cost", extract, true);
  EXPECT_THROW(registry.Register("cost", "again", extract, true), CheckError);
  EXPECT_THROW(registry.Register("", "anonymous", extract, true), CheckError);
  EXPECT_THROW(registry.Register("null", "no extractor", nullptr, true),
               CheckError);
}

TEST(MetricRegistryTest, UnknownMetricThrowsWithKnownNames) {
  try {
    (void)MetricRegistry::Standard().Find("latency");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("cost_usd"), std::string::npos);
  }
}

TEST(MetricRegistryTest, ExtractorsReadTheRightFields) {
  ArchMetrics m;
  m.seconds = Seconds(7200.0);
  m.cost_usd = Usd(10.0);
  m.top1 = 0.5;
  m.top5 = 0.8;
  m.goodput = 0.9;
  m.interruption_risk = 0.1;
  const MetricRegistry& r = MetricRegistry::Standard();
  EXPECT_DOUBLE_EQ(r.Find("time_h").extract(m), 2.0);
  EXPECT_DOUBLE_EQ(r.Find("cost_usd").extract(m), 10.0);
  EXPECT_DOUBLE_EQ(r.Find("tar").extract(m),
                   TimeAccuracyRatio(Seconds(7200.0), 0.8));
  EXPECT_DOUBLE_EQ(r.Find("car").extract(m),
                   CostAccuracyRatio(Usd(10.0), 0.8));
}

// --- evaluator parity with the cloud models ----------------------------------

TEST(Evaluator, OnDemandAutoBatchMatchesSimulatorRun) {
  Fixture f;
  const std::int64_t images = 123'457;
  for (std::size_t v = 0; v < f.space.Variants().size(); ++v) {
    for (std::size_t ty = 0; ty < f.space.TypeNames().size(); ++ty) {
      for (std::size_t ct = 0; ct < f.space.Counts().size(); ++ct) {
        AxisPoint p;
        p.variant = v;
        p.type = ty;
        p.count = ct;
        p.batch = 0;     // auto
        p.purchase = 0;  // on-demand
        ArchMetrics m;
        ASSERT_TRUE(f.evaluator.Evaluate(f.space.Encode(p), images, m));

        cloud::ResourceConfig config;
        config.Add(f.space.TypeNames()[ty], f.space.Counts()[ct]);
        const cloud::RunEstimate run =
            f.sim.Run(config, f.space.Variants()[v].perf, images);
        EXPECT_DOUBLE_EQ(m.seconds.value(), run.seconds.value());
        EXPECT_NEAR(m.cost_usd.value(), run.cost_usd.value(),
                    1e-9 * run.cost_usd.value());
        EXPECT_DOUBLE_EQ(m.goodput, 1.0);
        EXPECT_DOUBLE_EQ(m.interruption_risk, 0.0);
        EXPECT_DOUBLE_EQ(m.top1, f.space.Variants()[v].top1);
        EXPECT_DOUBLE_EQ(m.top5, f.space.Variants()[v].top5);
      }
    }
  }
}

TEST(Evaluator, SpotWithoutCheckpointUsesRestartExpectation) {
  Fixture f;
  const std::int64_t images = 500'000;
  AxisPoint p;
  p.purchase = 1;    // spot
  p.checkpoint = 0;  // none
  ArchMetrics m;
  ASSERT_TRUE(f.evaluator.Evaluate(f.space.Encode(p), images, m));

  cloud::ResourceConfig config;
  config.Add("p2.xlarge", 1);
  const cloud::RunEstimate base =
      f.sim.Run(config, f.space.Variants()[0].perf, images);
  const Seconds expected =
      ExpectedSecondsUnderInterruption(base.seconds, kRate);
  EXPECT_DOUBLE_EQ(m.seconds.value(), expected.value());
  const auto& type = f.catalog.Find("p2.xlarge");
  EXPECT_DOUBLE_EQ(
      m.cost_usd.value(),
      cloud::ProratedCost(expected, type.spot_price_per_hour).value());
}

TEST(Evaluator, OnWarningTriggerBeatsPeriodicOnExpectedTime) {
  // The warning trigger snapshots right before each preemption, so only the
  // restart delay is lost — expected time must be strictly below the
  // half-interval-losing periodic policy on the same row.
  Fixture f;
  AxisPoint p;
  p.count = 2;
  p.purchase = 1;
  p.degradation = 0;
  p.checkpoint = 1;  // periodic-300
  ArchMetrics periodic;
  ASSERT_TRUE(f.evaluator.Evaluate(f.space.Encode(p), 1'000'000, periodic));
  p.checkpoint = 2;  // on-warning
  ArchMetrics warn;
  ASSERT_TRUE(f.evaluator.Evaluate(f.space.Encode(p), 1'000'000, warn));
  EXPECT_LT(warn.seconds.value(), periodic.seconds.value());
}

TEST(Evaluator, EstimateSpotRunHonoursTheWarningTrigger) {
  // The warning trigger snapshots just before each preemption, so a
  // preemption costs the reprovisioning delay and no lost window, in
  // EstimateSpotRun as in the evaluator's row for the same run.
  Fixture f;
  AxisPoint p;
  p.count = 2;       // 3 x p2.xlarge
  p.purchase = 1;    // spot
  p.checkpoint = 2;  // on-warning
  ArchMetrics m;
  ASSERT_TRUE(f.evaluator.Evaluate(f.space.Encode(p), 1'000'000, m));
  EXPECT_NEAR(m.seconds.value(), 7647.6, 0.05);

  cloud::ResourceConfig config;
  config.Add("p2.xlarge", 3);
  const cloud::SpotRunEstimate est = cloud::EstimateSpotRun(
      f.sim, config, f.space.Variants()[0].perf, 1'000'000,
      f.space.CheckpointOptions()[2].policy, kRate, kRestart);
  EXPECT_EQ(est.expected_recompute_s.value(),
            est.expected_preemptions * kRestart.value());
  EXPECT_EQ(est.expected_seconds.value(), m.seconds.value());
  EXPECT_EQ(est.expected_spot_cost_usd.value(), m.cost_usd.value());
}

TEST(Evaluator, DegradationTradesAccuracyForTime) {
  Fixture f;
  AxisPoint p;
  p.count = 2;
  p.purchase = 1;    // spot
  p.checkpoint = 1;  // periodic-300 (nonzero recompute window)
  p.degradation = 0;
  ArchMetrics none;
  ASSERT_TRUE(f.evaluator.Evaluate(f.space.Encode(p), 1'000'000, none));
  p.degradation = 1;  // skip-frames: 2x faster replay at 0.95 accuracy
  ArchMetrics degraded;
  ASSERT_TRUE(f.evaluator.Evaluate(f.space.Encode(p), 1'000'000, degraded));
  EXPECT_LT(degraded.seconds.value(), none.seconds.value());
  EXPECT_LT(degraded.top5, none.top5);
  // Only the replayed fraction is degraded: the drop is bounded by the
  // full-degradation floor.
  EXPECT_GT(degraded.top5, none.top5 * 0.95);
}

TEST(Evaluator, DegradationIsIgnoredOnOnDemand) {
  Fixture f;
  AxisPoint p;
  p.purchase = 0;
  p.degradation = 0;
  ArchMetrics none;
  ASSERT_TRUE(f.evaluator.Evaluate(f.space.Encode(p), 100'000, none));
  p.degradation = 1;
  ArchMetrics degraded;
  ASSERT_TRUE(f.evaluator.Evaluate(f.space.Encode(p), 100'000, degraded));
  EXPECT_TRUE(BitwiseEqual(none, degraded));
}

TEST(Evaluator, SpotWithoutMarketIsInfeasible) {
  // A custom catalog whose only type has no spot market: every spot row
  // must come back infeasible, every on-demand row feasible.
  cloud::InstanceCatalog catalog(
      {{"lab.box", "lab", 8, 1, 64.0, 12.0, UsdPerHour(2.0),
        cloud::GpuKind::kK80, UsdPerHour(0.0)}},
      {cloud::GpuSpec{}});
  cloud::CloudSimulator sim(catalog);
  const cloud::ModelProfile profile = cloud::CaffeNetProfile();
  const CalibratedAccuracyModel accuracy = CalibratedAccuracyModel::CaffeNet();
  std::vector<pruning::PrunePlan> plans;
  plans.emplace_back();
  ArchitectureSpace space;
  space.AddVariants(BuildVariantSpecs(profile, accuracy, plans, false));
  space.AddInstanceType("lab.box");
  space.SetCounts({1});
  space.SetBatches({0});
  space.SetPurchaseOptions(
      {PurchaseOption::kOnDemand, PurchaseOption::kSpot});
  space.AddCheckpointOption({.name = "none", .enabled = false, .policy = {}});
  space.AddDegradationOption({.name = "none"});
  const ArchitectureEvaluator evaluator(sim, space, kRate, kRestart);

  ArchMetrics m;
  AxisPoint p;
  p.purchase = 0;
  EXPECT_TRUE(evaluator.Evaluate(space.Encode(p), 1000, m));
  p.purchase = 1;
  EXPECT_FALSE(evaluator.Evaluate(space.Encode(p), 1000, m));
}

TEST(Evaluator, RejectsIdsPastTheSpace) {
  Fixture f;
  ArchMetrics m;
  EXPECT_THROW((void)f.evaluator.Evaluate(f.space.Size(), 1000, m),
               CheckError);
  EXPECT_THROW((void)f.evaluator.Evaluate(UINT64_MAX, 1000, m), CheckError);
}

/// A space that populates every axis: both purchase options, all four
/// checkpoint settings (each interval at least its snapshot cost), all
/// three degradations, all five SDC kinds, auto and fixed batches.
ArchitectureSpace PinSpace(const cloud::ModelProfile& profile,
                           const CalibratedAccuracyModel& accuracy) {
  std::vector<pruning::PrunePlan> plans;
  plans.emplace_back();
  plans.push_back(pruning::UniformPlan({"conv2", "conv3"}, 0.5));
  ArchitectureSpace space;
  space.AddVariants(BuildVariantSpecs(profile, accuracy, plans,
                                      /*include_int8=*/true));
  for (const char* type :
       {"p2.xlarge", "p2.8xlarge", "g3.4xlarge", "g3.16xlarge"}) {
    space.AddInstanceType(type);
  }
  space.SetCounts({1, 3, 7});
  space.SetBatches({0, 32, 256});
  space.SetPurchaseOptions(
      {PurchaseOption::kOnDemand, PurchaseOption::kSpot});
  using cloud::CheckpointTrigger;
  space.AddCheckpointOption({.name = "none", .enabled = false, .policy = {}});
  space.AddCheckpointOption(
      {.name = "periodic-60",
       .enabled = true,
       .policy = {.trigger = CheckpointTrigger::kPeriodic,
                  .interval_s = 60.0,
                  .snapshot_cost_s = 5.0}});
  space.AddCheckpointOption(
      {.name = "adaptive",
       .enabled = true,
       .policy = {.trigger = CheckpointTrigger::kAdaptive}});
  space.AddCheckpointOption(
      {.name = "warn",
       .enabled = true,
       .policy = {.trigger = CheckpointTrigger::kOnPreemptionWarning}});
  space.AddDegradationOption({.name = "none"});
  space.AddDegradationOption({.name = "skip-frames",
                              .recompute_speedup = 2.0,
                              .accuracy_factor = 0.97});
  space.AddDegradationOption({.name = "half-res",
                              .recompute_speedup = 4.0,
                              .accuracy_factor = 0.90});
  using cloud::SdcPolicyKind;
  space.AddSdcOption({.name = "off", .policy = {}});
  space.AddSdcOption({.name = "none", .policy = {.kind = SdcPolicyKind::kNone}});
  space.AddSdcOption({.name = "abft", .policy = {.kind = SdcPolicyKind::kAbft}});
  space.AddSdcOption(
      {.name = "scrub", .policy = {.kind = SdcPolicyKind::kScrub}});
  space.AddSdcOption({.name = "reexec",
                      .policy = {.kind = SdcPolicyKind::kReexecSample,
                                 .sample_fraction = 0.1}});
  return space;
}

TEST(Evaluator, EveryRowIsPinned) {
  // CRC-32 over the feasibility flag and the bytes of every row. A change
  // to any stage of the cost model moves it; a refactor must not. At 2,000
  // images some spot runs are shorter than one snapshot, which pins the
  // interval rule for them too.
  Fixture f;
  const ArchitectureSpace space = PinSpace(f.profile, f.accuracy);
  const ArchitectureEvaluator evaluator(f.sim, space, kRate, kRestart);
  ASSERT_EQ(space.Size(), 4u * 4 * 3 * 3 * 2 * 4 * 3 * 5);
  for (const auto& [images, pinned] :
       {std::pair<std::int64_t, std::uint32_t>{2'000, 0x1371fa4cu},
        std::pair<std::int64_t, std::uint32_t>{1'000'000, 0x1328461au}}) {
    std::uint32_t crc = 0;
    for (std::uint64_t id = 0; id < space.Size(); ++id) {
      ArchMetrics m;
      const char feasible = evaluator.Evaluate(id, images, m) ? 1 : 0;
      crc = Crc32Update(crc, &feasible, 1);
      if (feasible) crc = Crc32Update(crc, &m, sizeof(m));
    }
    EXPECT_EQ(crc, pinned) << images << " images: 0x" << std::hex << crc;
  }
}

TEST(Evaluator, RangesReproduceThePinnedRows) {
  // EvaluateRange runs each cost stage once per run of ids sharing the axes
  // it reads. Every way of cutting the space into ranges, with range edges
  // inside those runs (the 7-id first range shifts every later edge), must
  // give EveryRowIsPinned's CRCs, write every feasible row and leave every
  // infeasible one untouched.
  Fixture f;
  const ArchitectureSpace space = PinSpace(f.profile, f.accuracy);
  const ArchitectureEvaluator evaluator(f.sim, space, kRate, kRestart);
  const std::uint64_t size = space.Size();
  std::vector<char> feasible(size);
  std::vector<ArchMetrics> rows(size);
  ArchMetrics poison;
  std::memset(&poison, 0xa5, sizeof(poison));
  const std::vector<std::uint64_t> lengths = {1,  2,  5,    17,  18,
                                              90, 97, 4099, size};
  for (const auto& [images, pinned] :
       {std::pair<std::int64_t, std::uint32_t>{2'000, 0x1371fa4cu},
        std::pair<std::int64_t, std::uint32_t>{1'000'000, 0x1328461au}}) {
    for (const std::uint64_t length : lengths) {
      for (const std::uint64_t first : {length, std::uint64_t{7}}) {
        SCOPED_TRACE(testing::Message() << images << " images, ranges of "
                                        << length << " after " << first);
        std::fill(feasible.begin(), feasible.end(), 2);
        std::fill(rows.begin(), rows.end(), poison);
        for (std::uint64_t begin = 0; begin < size;) {
          const std::uint64_t n = std::min(begin == 0 ? first : length,
                                           size - begin);
          evaluator.EvaluateRange(
              begin, images, std::span<char>(feasible).subspan(begin, n),
              std::span<ArchMetrics>(rows).subspan(begin, n));
          begin += n;
        }
        std::uint32_t crc = 0;
        for (std::uint64_t id = 0; id < size; ++id) {
          ASSERT_TRUE(feasible[id] == 0 || feasible[id] == 1) << id;
          crc = Crc32Update(crc, &feasible[id], 1);
          if (feasible[id]) {
            crc = Crc32Update(crc, &rows[id], sizeof(ArchMetrics));
          } else {
            ASSERT_TRUE(BitwiseEqual(rows[id], poison)) << id;
          }
        }
        EXPECT_EQ(crc, pinned) << "0x" << std::hex << crc;
      }
    }
  }
}

TEST(Evaluator, RangeRejectsIdsPastTheSpace) {
  // A range must end inside the space, also when begin + n wraps past
  // UINT64_MAX back into it; a rejected or empty range writes nothing.
  Fixture f;
  const std::uint64_t size = f.space.Size();
  std::vector<char> feasible(4, 2);
  std::vector<ArchMetrics> rows(4);
  const std::span<char> flags(feasible);
  const std::span<ArchMetrics> out(rows);
  EXPECT_THROW(
      f.evaluator.EvaluateRange(size - 1, 1000, flags.first(2), out.first(2)),
      CheckError);
  EXPECT_THROW(
      f.evaluator.EvaluateRange(size, 1000, flags.first(1), out.first(1)),
      CheckError);
  EXPECT_THROW(f.evaluator.EvaluateRange(UINT64_MAX - 1, 1000, flags, out),
               CheckError);
  EXPECT_THROW(
      f.evaluator.EvaluateRange(size + 1, 1000, flags.first(0), out.first(0)),
      CheckError);
  EXPECT_THROW(f.evaluator.EvaluateRange(0, 1000, flags.first(2), out),
               CheckError);
  f.evaluator.EvaluateRange(0, 1000, flags.first(0), out.first(0));
  f.evaluator.EvaluateRange(size, 1000, flags.first(0), out.first(0));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(feasible[i], 2) << i;
    EXPECT_TRUE(BitwiseEqual(rows[i], ArchMetrics{})) << i;
  }
  // The space's last ids fit.
  f.evaluator.EvaluateRange(size - 4, 1000, flags, out);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ArchMetrics m;
    ASSERT_EQ(f.evaluator.Evaluate(size - 4 + i, 1000, m), feasible[i] == 1);
    if (feasible[i]) EXPECT_TRUE(BitwiseEqual(m, rows[i])) << i;
  }
}

TEST(Evaluator, KeepsItsOwnCopyOfTheSpace) {
  // Editing the caller's space after construction — a third instance type,
  // fewer counts — must not reach the evaluator: it keeps decoding every
  // original id to the same configuration, priced bitwise as before.
  Fixture f;
  const std::uint64_t size = f.space.Size();
  std::vector<ArchMetrics> before(size);
  std::vector<char> feasible(size);
  for (std::uint64_t id = 0; id < size; ++id) {
    feasible[id] = f.evaluator.Evaluate(id, 250'000, before[id]) ? 1 : 0;
  }
  f.space.AddInstanceType("g3.16xlarge");
  f.space.SetCounts({1});
  ASSERT_NE(f.space.Size(), size);
  EXPECT_EQ(f.evaluator.Space().Size(), size);
  for (std::uint64_t id = 0; id < size; ++id) {
    ArchMetrics m;
    ASSERT_EQ(f.evaluator.Evaluate(id, 250'000, m), feasible[id] != 0) << id;
    if (feasible[id]) EXPECT_TRUE(BitwiseEqual(m, before[id])) << id;
  }
}

// --- streamed enumeration ----------------------------------------------------

/// Materialize-everything oracle: evaluate every id, apply the feasibility
/// filter, then run the O(n²) frontier over the survivors.
std::vector<std::uint64_t> OracleFrontier(
    const ArchitectureEvaluator& evaluator,
    const EnumerationOptions& options) {
  std::vector<std::uint64_t> ids;
  std::vector<double> t, c, a;
  for (std::uint64_t id = 0; id < evaluator.Space().Size(); ++id) {
    ArchMetrics m;
    if (!evaluator.Evaluate(id, options.images, m)) continue;
    if (m.seconds > options.deadline_s || m.cost_usd > options.budget_usd) {
      continue;
    }
    ids.push_back(id);
    t.push_back(m.seconds.value());
    c.push_back(m.cost_usd.value());
    a.push_back(options.use_top5 ? m.top5 : m.top1);
  }
  std::vector<std::uint64_t> frontier;
  for (std::size_t idx : ParetoFrontier3(t, c, a)) {
    frontier.push_back(ids[idx]);
  }
  return frontier;
}

TEST(EnumerateFrontierTest, MatchesMaterializedOracle) {
  Fixture f;
  for (const bool use_top5 : {true, false}) {
    EnumerationOptions options;
    options.images = 250'000;
    options.block = 37;  // force many compaction rounds
    options.use_top5 = use_top5;
    const EnumerationResult result = EnumerateFrontier(f.evaluator, options);
    std::vector<std::uint64_t> got;
    for (const auto& point : result.frontier) got.push_back(point.id);
    EXPECT_EQ(got, OracleFrontier(f.evaluator, options)) << use_top5;
    EXPECT_EQ(result.evaluated, f.space.Size());
    EXPECT_GE(result.feasible, result.frontier.size());
  }
}

TEST(EnumerateFrontierTest, DeadlineAndBudgetFilter) {
  Fixture f;
  EnumerationOptions options;
  options.images = 250'000;
  options.deadline_s = Seconds(2.0 * 3600.0);
  options.budget_usd = Usd(5.0);
  const EnumerationResult result = EnumerateFrontier(f.evaluator, options);
  EXPECT_LT(result.feasible, f.space.Size());
  for (const auto& point : result.frontier) {
    EXPECT_LE(point.metrics.seconds, options.deadline_s);
    EXPECT_LE(point.metrics.cost_usd, options.budget_usd);
  }
  std::vector<std::uint64_t> got;
  for (const auto& point : result.frontier) got.push_back(point.id);
  EXPECT_EQ(got, OracleFrontier(f.evaluator, options));
}

TEST(EnumerateFrontierTest, BlockSizeInvariant) {
  Fixture f;
  EnumerationOptions options;
  options.images = 250'000;
  options.block = 1;
  const EnumerationResult one = EnumerateFrontier(f.evaluator, options);
  options.block = 97;
  const EnumerationResult some = EnumerateFrontier(f.evaluator, options);
  options.block = 1 << 20;  // whole space in one block
  const EnumerationResult all = EnumerateFrontier(f.evaluator, options);
  ASSERT_EQ(one.frontier.size(), all.frontier.size());
  ASSERT_EQ(some.frontier.size(), all.frontier.size());
  for (std::size_t i = 0; i < all.frontier.size(); ++i) {
    EXPECT_EQ(one.frontier[i].id, all.frontier[i].id);
    EXPECT_EQ(some.frontier[i].id, all.frontier[i].id);
    EXPECT_TRUE(BitwiseEqual(one.frontier[i].metrics, all.frontier[i].metrics));
    EXPECT_TRUE(
        BitwiseEqual(some.frontier[i].metrics, all.frontier[i].metrics));
  }
  // Streaming keeps the candidate set near O(frontier + block): with
  // block=97 the high-water mark is bounded by peak frontier + block.
  EXPECT_LE(some.peak_candidates, all.peak_candidates + 97);
}

TEST(EnumerateFrontierTest, ParallelBitwiseEqualsSerial) {
  Fixture f;
  EnumerationOptions options;
  options.images = 250'000;
  options.block = 64;
  options.serial = true;
  const EnumerationResult serial = EnumerateFrontier(f.evaluator, options);
  options.serial = false;
  const EnumerationResult parallel = EnumerateFrontier(f.evaluator, options);
  ASSERT_EQ(serial.frontier.size(), parallel.frontier.size());
  for (std::size_t i = 0; i < serial.frontier.size(); ++i) {
    EXPECT_EQ(serial.frontier[i].id, parallel.frontier[i].id);
    EXPECT_TRUE(BitwiseEqual(serial.frontier[i].metrics,
                             parallel.frontier[i].metrics));
  }
  EXPECT_EQ(serial.evaluated, parallel.evaluated);
  EXPECT_EQ(serial.feasible, parallel.feasible);
  EXPECT_EQ(serial.peak_candidates, parallel.peak_candidates);
}

TEST(EnumerateFrontierTest, FrontierPointsAreMutuallyNonDominated) {
  Fixture f;
  EnumerationOptions options;
  options.images = 250'000;
  const EnumerationResult result = EnumerateFrontier(f.evaluator, options);
  ASSERT_FALSE(result.frontier.empty());
  for (const auto& x : result.frontier) {
    for (const auto& y : result.frontier) {
      if (x.id == y.id) continue;
      EXPECT_FALSE(Dominates3(
          x.metrics.seconds.value(), x.metrics.cost_usd.value(),
          x.metrics.top5, y.metrics.seconds.value(),
          y.metrics.cost_usd.value(), y.metrics.top5));
    }
  }
}

TEST(BuildVariantSpecsTest, Int8TwinsFollowTheirFloatPlans) {
  const cloud::ModelProfile profile = cloud::CaffeNetProfile();
  const CalibratedAccuracyModel accuracy = CalibratedAccuracyModel::CaffeNet();
  std::vector<pruning::PrunePlan> plans;
  plans.emplace_back();
  const auto specs = BuildVariantSpecs(profile, accuracy, plans, true);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].label, "nonpruned");
  EXPECT_EQ(specs[1].label, "nonpruned+int8");
  // Quantization costs accuracy and buys time.
  EXPECT_LT(specs[1].top5, specs[0].top5);
  EXPECT_LT(specs[1].perf.ref_seconds_per_image.value(),
            specs[0].perf.ref_seconds_per_image.value());
}

}  // namespace
}  // namespace ccperf::core
