// The silent-data-corruption layer end to end: the closed-form policy model
// (cloud/sdc.h), the kSilentCorruption fault kind and its timeline windows,
// the SDC axis of the architecture-space enumerator (the one offline SDC
// pricing), the catalog's SDC rates, and the serving engine's
// detect-or-escape accounting (including checkpoint/restore of the SDC
// counters).
//
// The invariant threaded through everything: SdcPolicyKind::kOff means
// "SDC not modeled", and every code path short-circuits so kOff results
// are bitwise identical to the pre-SDC code.
#include "cloud/sdc.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/density.h"
#include "cloud/faults.h"
#include "cloud/instance_catalog.h"
#include "cloud/model_profile.h"
#include "cloud/serving.h"
#include "cloud/simulator.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/accuracy_model.h"
#include "core/enumerate.h"
#include "pruning/prune_plan.h"

namespace ccperf::cloud {
namespace {

// ---------------------------------------------------------------- policy --

TEST(SdcPolicy, ValidateAcceptsDefaultsOfEveryKind) {
  for (const auto kind :
       {SdcPolicyKind::kOff, SdcPolicyKind::kNone, SdcPolicyKind::kAbft,
        SdcPolicyKind::kScrub, SdcPolicyKind::kReexecSample}) {
    SdcPolicy policy{.kind = kind};
    EXPECT_NO_THROW(policy.Validate()) << SdcPolicyKindName(kind);
  }
}

TEST(SdcPolicy, ValidateRejectsBadKnobs) {
  SdcPolicy scrub{.kind = SdcPolicyKind::kScrub, .scrub_interval_s = 0.0};
  EXPECT_THROW(scrub.Validate(), CheckError);
  scrub = {.kind = SdcPolicyKind::kScrub,
           .scrub_interval_s = 10.0,
           .scrub_cost_s = 10.0};  // cost must stay below the interval
  EXPECT_THROW(scrub.Validate(), CheckError);
  SdcPolicy nan_interval{.kind = SdcPolicyKind::kScrub,
                         .scrub_interval_s = std::nan("")};
  EXPECT_THROW(nan_interval.Validate(), CheckError);
  SdcPolicy sample{.kind = SdcPolicyKind::kReexecSample,
                   .sample_fraction = 1.5};
  EXPECT_THROW(sample.Validate(), CheckError);
  sample.sample_fraction = -0.1;
  EXPECT_THROW(sample.Validate(), CheckError);
}

TEST(SdcPolicy, LabelIsStable) {
  EXPECT_EQ(SdcPolicy{}.Label(), "off");
  EXPECT_EQ((SdcPolicy{.kind = SdcPolicyKind::kNone}).Label(), "none");
  EXPECT_EQ((SdcPolicy{.kind = SdcPolicyKind::kAbft}).Label(), "abft");
  EXPECT_EQ((SdcPolicy{.kind = SdcPolicyKind::kScrub}).Label(), "scrub@300");
  EXPECT_EQ((SdcPolicy{.kind = SdcPolicyKind::kReexecSample}).Label(),
            "reexec-sample@0.1");
}

// ----------------------------------------------------------- closed form --

TEST(AssessSdcTest, OffIsAllZeros) {
  const SdcAssessment a = AssessSdc({}, /*sdc_rate=*/RatePerHour(0.1),
                                    /*run_seconds=*/Seconds(3600.0));
  EXPECT_EQ(a.corruption_fraction, 0.0);
  EXPECT_EQ(a.detected_fraction, 0.0);
  EXPECT_EQ(a.escape_fraction, 0.0);
  EXPECT_EQ(a.time_overhead, 0.0);
}

TEST(AssessSdcTest, NoneEscapesEverythingAtZeroCost) {
  const SdcPolicy none{.kind = SdcPolicyKind::kNone};
  const SdcAssessment a = AssessSdc(none, RatePerHour(0.01), Seconds(3600.0));
  EXPECT_GT(a.corruption_fraction, 0.0);
  EXPECT_EQ(a.detected_fraction, 0.0);
  EXPECT_DOUBLE_EQ(a.escape_fraction, a.corruption_fraction);
  EXPECT_EQ(a.time_overhead, 0.0);
}

TEST(AssessSdcTest, CorruptionGrowsWithRateAndRunLength) {
  const SdcPolicy none{.kind = SdcPolicyKind::kNone};
  const double lo = AssessSdc(none, RatePerHour(0.001), Seconds(3600.0)).corruption_fraction;
  const double hi =
      AssessSdc(none, RatePerHour(0.01), Seconds(3600.0)).corruption_fraction;
  EXPECT_LT(lo, hi);
  const double shorter = AssessSdc(none, RatePerHour(0.01), Seconds(600.0)).corruption_fraction;
  const double longer = AssessSdc(none, RatePerHour(0.01), Seconds(36000.0))
                            .corruption_fraction;
  EXPECT_LT(shorter, longer);  // persistent onsets taint more of a long run
  // And every fraction stays a fraction, even at absurd rates.
  const SdcAssessment extreme =
      AssessSdc(none, RatePerHour(1e6), Seconds(36000.0));
  EXPECT_LE(extreme.corruption_fraction, 1.0);
  EXPECT_LE(extreme.escape_fraction, 1.0);
}

TEST(AssessSdcTest, AbftCatchesCoverageWorthAndBillsOverhead) {
  const SdcPolicy none{.kind = SdcPolicyKind::kNone};
  const SdcPolicy abft{.kind = SdcPolicyKind::kAbft};
  const SdcAssessment base =
      AssessSdc(none, RatePerHour(0.01), Seconds(36000.0));
  const SdcAssessment a =
      AssessSdc(abft, RatePerHour(0.01), Seconds(36000.0));
  // Same corruption exposure, split differently.
  EXPECT_DOUBLE_EQ(a.corruption_fraction, base.corruption_fraction);
  EXPECT_DOUBLE_EQ(a.escape_fraction,
                   base.corruption_fraction * (1.0 - kAbftCoverage));
  EXPECT_DOUBLE_EQ(a.detected_fraction,
                   base.corruption_fraction * kAbftCoverage);
  // Overhead = always-on machinery + the detected work redone.
  EXPECT_DOUBLE_EQ(a.time_overhead, kAbftTimeOverhead + a.detected_fraction);
  EXPECT_LT(a.escape_fraction, base.escape_fraction);
}

TEST(AssessSdcTest, ScrubConvertsPersistentCorruptionOnly) {
  const SdcPolicy none{.kind = SdcPolicyKind::kNone};
  const SdcPolicy scrub{.kind = SdcPolicyKind::kScrub,
                        .scrub_interval_s = 300.0,
                        .scrub_cost_s = 2.0};
  const double run_s = 36000.0;
  const SdcAssessment base =
      AssessSdc(none, RatePerHour(0.01), Seconds(run_s));
  const SdcAssessment s =
      AssessSdc(scrub, RatePerHour(0.01), Seconds(run_s));
  // Scrubbing finds persistent corruption after interval/2 on average, so
  // less escapes than detection-free — but transients clear before a scrub
  // ever sees them, so some escape remains.
  EXPECT_LT(s.escape_fraction, base.escape_fraction);
  EXPECT_GT(s.escape_fraction, 0.0);
  EXPECT_GT(s.detected_fraction, 0.0);
  // Machinery term: one scrub_cost_s per interval.
  EXPECT_GE(s.time_overhead, 2.0 / 300.0);
  // A run shorter than the scrub interval gets no escape benefit (the
  // machinery is still billed).
  const SdcAssessment short_run =
      AssessSdc(scrub, RatePerHour(0.01), Seconds(60.0));
  const SdcAssessment short_none =
      AssessSdc(none, RatePerHour(0.01), Seconds(60.0));
  EXPECT_DOUBLE_EQ(short_run.escape_fraction, short_none.escape_fraction);
  EXPECT_GT(short_run.time_overhead, 0.0);
}

TEST(AssessSdcTest, ReexecSampleCoverageEqualsSampleFraction) {
  const SdcPolicy reexec{.kind = SdcPolicyKind::kReexecSample,
                         .sample_fraction = 0.25};
  const SdcAssessment a =
      AssessSdc(reexec, RatePerHour(0.01), Seconds(36000.0));
  EXPECT_DOUBLE_EQ(a.detected_fraction, a.corruption_fraction * 0.25);
  EXPECT_DOUBLE_EQ(a.escape_fraction, a.corruption_fraction * 0.75);
  EXPECT_DOUBLE_EQ(a.time_overhead, 0.25 + a.detected_fraction);
}

TEST(AssessSdcTest, RejectsNonFiniteInputs) {
  const SdcPolicy none{.kind = SdcPolicyKind::kNone};
  EXPECT_THROW(AssessSdc(none, RatePerHour(-1.0), Seconds(3600.0)),
               CheckError);
  EXPECT_THROW(AssessSdc(none, RatePerHour(std::nan("")), Seconds(3600.0)),
               CheckError);
  EXPECT_THROW(AssessSdc(none, RatePerHour(0.01), Seconds(-5.0)), CheckError);
}

TEST(DeliveredAccuracyTest, DiscountsEscapedWork) {
  EXPECT_DOUBLE_EQ(DeliveredAccuracy(0.8, 0.0, kCorruptTop1Factor), 0.8);
  // Full escape: everything delivered at the corrupt factor.
  EXPECT_DOUBLE_EQ(DeliveredAccuracy(0.8, 1.0, kCorruptTop1Factor),
                   0.8 * kCorruptTop1Factor);
  // Linear in between.
  EXPECT_DOUBLE_EQ(DeliveredAccuracy(0.8, 0.5, kCorruptTop1Factor),
                   0.8 * (1.0 - 0.5 * (1.0 - kCorruptTop1Factor)));
  EXPECT_THROW(DeliveredAccuracy(0.8, 1.5, kCorruptTop1Factor), CheckError);
}

TEST(DeliveredAccuracyTest, CorruptFactorsComeFromTheAccuracyModel) {
  // The factors are the calibrated model's corrupted-to-clean accuracy of
  // the unpruned CaffeNet at kSdcCorruptionDamage, rounded to 3 decimals.
  const auto model = core::CalibratedAccuracyModel::CaffeNet();
  const core::AccuracyResult clean = model.Evaluate({});
  const core::AccuracyResult corrupt = model.EvaluateQuantized(
      {}, core::CalibratedAccuracyModel::kSdcCorruptionDamage);
  const auto at_3_decimals = [](double x) {
    return std::round(x * 1000.0) / 1000.0;
  };
  EXPECT_EQ(at_3_decimals(corrupt.top1 / clean.top1), kCorruptTop1Factor);
  EXPECT_EQ(at_3_decimals(corrupt.top5 / clean.top5), kCorruptTop5Factor);
}

// ------------------------------------------------- fault kind + timeline --

TEST(SdcFaults, SilentCorruptionKindRoundTripsThroughCsv) {
  EXPECT_STREQ(FaultKindName(FaultKind::kSilentCorruption),
               "silent-corruption");
  EXPECT_FALSE(FaultKindIsPermanent(FaultKind::kSilentCorruption));

  FaultSchedule schedule;
  schedule.events.push_back({.kind = FaultKind::kSilentCorruption,
                             .instance = 1,
                             .start_s = 5.0,
                             .duration_s = 30.0});
  schedule.Validate();
  const FaultSchedule parsed =
      ParseFaultScheduleCsv(FaultScheduleCsv(schedule));
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0].kind, FaultKind::kSilentCorruption);
  EXPECT_EQ(parsed.events[0].instance, 1);
  EXPECT_DOUBLE_EQ(parsed.events[0].start_s, 5.0);
  EXPECT_DOUBLE_EQ(parsed.events[0].duration_s, 30.0);
}

TEST(SdcFaults, TimelineCorruptedAtTracksTheWindowAndStaysUp) {
  FaultSchedule schedule;
  schedule.events.push_back({.kind = FaultKind::kSilentCorruption,
                             .instance = 0,
                             .start_s = 10.0,
                             .duration_s = 20.0});
  const InstanceTimeline timeline(schedule, 0, 100.0);
  EXPECT_FALSE(timeline.CorruptedAt(9.9));
  EXPECT_TRUE(timeline.CorruptedAt(10.0));
  EXPECT_TRUE(timeline.CorruptedAt(29.9));
  EXPECT_FALSE(timeline.CorruptedAt(30.0));
  // The whole hazard: the instance is UP while corrupted.
  EXPECT_TRUE(timeline.UpAt(15.0));
  EXPECT_DOUBLE_EQ(timeline.DownSeconds(), 0.0);
  // Other instances are untouched.
  const InstanceTimeline other(schedule, 1, 100.0);
  EXPECT_FALSE(other.CorruptedAt(15.0));
}

TEST(SdcFaults, GeneratedSchedulesCarrySdcEvents) {
  FaultModel model;
  model.sdc_rate = 5.0;  // high, so a 1h x 4-instance draw surely hits
  model.sdc_window_s = 60.0;
  Rng rng(11);
  const FaultSchedule schedule = GenerateFaultSchedule(model, 4, 3600.0, rng);
  std::size_t corruptions = 0;
  for (const auto& event : schedule.events) {
    if (event.kind == FaultKind::kSilentCorruption) {
      ++corruptions;
      EXPECT_DOUBLE_EQ(event.duration_s, 60.0);
    }
  }
  EXPECT_GT(corruptions, 0u);
}

// ----------------------------------------------------- enumeration axis --

class SdcSpaceTest : public ::testing::Test {
 protected:
  SdcSpaceTest()
      : catalog_(InstanceCatalog::AwsEc2()),
        sim_(catalog_),
        profile_(CaffeNetProfile()),
        accuracy_(core::CalibratedAccuracyModel::CaffeNet()) {}

  /// 1 variant x 2 types x 2 counts, every other axis radix 1.
  core::ArchitectureSpace BaseSpace() const {
    core::ArchitectureSpace space;
    space.AddVariants(core::BuildVariantSpecs(
        profile_, accuracy_, {pruning::PrunePlan{}}, /*include_int8=*/false));
    space.AddInstanceType("p2.xlarge");
    space.AddInstanceType("p2.16xlarge");
    space.SetCounts({1, 2});
    space.SetBatches({0});
    space.SetPurchaseOptions({core::PurchaseOption::kOnDemand});
    space.AddCheckpointOption({.name = "none", .enabled = false, .policy = {}});
    space.AddDegradationOption({.name = "none"});
    return space;
  }

  InstanceCatalog catalog_;
  CloudSimulator sim_;
  ModelProfile profile_;
  core::CalibratedAccuracyModel accuracy_;
};

TEST_F(SdcSpaceTest, ImplicitAxisKeepsIdsAndSizeUnchanged) {
  const core::ArchitectureSpace space = BaseSpace();
  // No AddSdcOption call: the implicit axis is a single "off" entry, so it
  // is radix 1 — Size() is the pre-SDC product and Decode round-trips.
  ASSERT_EQ(space.SdcOptions().size(), 1u);
  EXPECT_EQ(space.SdcOptions()[0].name, "off");
  EXPECT_EQ(space.Size(), 4u);
  for (std::uint64_t id = 0; id < space.Size(); ++id) {
    const core::AxisPoint p = space.Decode(id);
    EXPECT_EQ(p.sdc, 0u);
    EXPECT_EQ(space.Encode(p), id);
  }
  // Describe stays in its pre-SDC shape.
  EXPECT_EQ(space.Describe(0).find(" | sdc="), std::string::npos);
}

TEST_F(SdcSpaceTest, ExplicitAxisRoundTripsAndDescribes) {
  core::ArchitectureSpace space = BaseSpace();
  space.AddSdcOption({.name = "off", .policy = {}});
  space.AddSdcOption(
      {.name = "abft", .policy = {.kind = SdcPolicyKind::kAbft}});
  space.Validate();
  EXPECT_EQ(space.Size(), 8u);
  for (std::uint64_t id = 0; id < space.Size(); ++id) {
    EXPECT_EQ(space.Encode(space.Decode(id)), id);
  }
  // SDC is the fastest axis: consecutive ids step it first.
  EXPECT_EQ(space.Decode(0).sdc, 0u);
  EXPECT_EQ(space.Decode(1).sdc, 1u);
  EXPECT_NE(space.Describe(1).find(" | sdc=abft"), std::string::npos);
}

TEST_F(SdcSpaceTest, ValidateRejectsBadSdcOptions) {
  core::ArchitectureSpace unnamed = BaseSpace();
  unnamed.AddSdcOption({.name = "", .policy = {}});
  EXPECT_THROW(unnamed.Validate(), CheckError);
  core::ArchitectureSpace bad_policy = BaseSpace();
  bad_policy.AddSdcOption(
      {.name = "scrub",
       .policy = {.kind = SdcPolicyKind::kScrub, .scrub_interval_s = -1.0}});
  EXPECT_THROW(bad_policy.Validate(), CheckError);
}

TEST_F(SdcSpaceTest, EvaluatorOffRowsMatchThePlainSpaceBitwise) {
  const core::ArchitectureSpace plain = BaseSpace();
  core::ArchitectureSpace with_axis = BaseSpace();
  with_axis.AddSdcOption({.name = "off", .policy = {}});
  with_axis.AddSdcOption(
      {.name = "none", .policy = {.kind = SdcPolicyKind::kNone}});
  const core::ArchitectureEvaluator eval_plain(sim_, plain);
  const core::ArchitectureEvaluator eval_axis(sim_, with_axis);
  const std::int64_t images = 1'000'000;
  for (std::uint64_t id = 0; id < plain.Size(); ++id) {
    core::ArchMetrics a;
    core::ArchMetrics b;
    ASSERT_TRUE(eval_plain.Evaluate(id, images, a));
    // The SDC axis is the fastest, so the axis doubles the id stride and
    // sdc=0 ("off") sits at even ids.
    ASSERT_TRUE(eval_axis.Evaluate(id * 2, images, b));
    EXPECT_EQ(a.seconds.value(), b.seconds.value());
    EXPECT_EQ(a.cost_usd.value(), b.cost_usd.value());
    EXPECT_EQ(a.top1, b.top1);
    // kOff: delivered degenerates to the headline accuracy.
    EXPECT_EQ(b.delivered_top1, b.top1);
    EXPECT_EQ(b.sdc_escape_rate, 0.0);
    EXPECT_EQ(b.detection_overhead, 0.0);
  }
}

TEST_F(SdcSpaceTest, EvaluatorPricesDetectionAndDiscountsEscapes) {
  core::ArchitectureSpace space = BaseSpace();
  space.AddSdcOption(
      {.name = "none", .policy = {.kind = SdcPolicyKind::kNone}});
  space.AddSdcOption(
      {.name = "abft", .policy = {.kind = SdcPolicyKind::kAbft}});
  const core::ArchitectureEvaluator evaluator(sim_, space);
  const std::int64_t images = 10'000'000;
  core::ArchMetrics none;
  core::ArchMetrics abft;
  ASSERT_TRUE(evaluator.Evaluate(0, images, none));  // sdc axis is fastest
  ASSERT_TRUE(evaluator.Evaluate(1, images, abft));
  // Detection-free: full escape, no overhead, delivered below headline.
  EXPECT_GT(none.sdc_escape_rate, 0.0);
  EXPECT_EQ(none.detection_overhead, 0.0);
  EXPECT_LT(none.delivered_top1, none.top1);
  // ABFT: almost nothing escapes, time and cost are billed.
  EXPECT_LT(abft.sdc_escape_rate, none.sdc_escape_rate);
  EXPECT_GT(abft.detection_overhead, 0.0);
  EXPECT_GT(abft.seconds.value(), none.seconds.value());
  EXPECT_GT(abft.cost_usd.value(), none.cost_usd.value());
  EXPECT_GT(abft.delivered_top1, none.delivered_top1);
}

// --------------------------------------------------------------- catalog --

class SdcRunTest : public ::testing::Test {
 protected:
  InstanceCatalog catalog_ = InstanceCatalog::AwsEc2();
};

TEST_F(SdcRunTest, CatalogCarriesSdcRates) {
  // p2 (K80) boards run hotter than g3 (M60), and rates scale with GPUs.
  EXPECT_GT(catalog_.Find("p2.xlarge").sdc_rate_per_hour.value(), 0.0);
  EXPECT_GT(catalog_.Find("p2.16xlarge").sdc_rate_per_hour.value(),
            catalog_.Find("p2.xlarge").sdc_rate_per_hour.value());
  EXPECT_LT(catalog_.Find("g3.4xlarge").sdc_rate_per_hour.value(),
            catalog_.Find("p2.xlarge").sdc_rate_per_hour.value());
}

// --------------------------------------------------------------- serving --

class SdcServingTest : public ::testing::Test {
 protected:
  SdcServingTest()
      : catalog_(InstanceCatalog::AwsEc2()),
        sim_(catalog_),
        serving_(sim_),
        profile_(CaffeNetProfile()),
        perf_(ComputeVariantPerf(profile_, DensityFromPlan(profile_, {}),
                                 "nonpruned")) {}

  ResourceConfig OneP2() {
    ResourceConfig config;
    config.Add("p2.xlarge");
    return config;
  }

  /// A paced arrival trace: one request every `gap_s` over `duration_s`.
  static std::vector<double> PacedArrivals(double duration_s, double gap_s) {
    std::vector<double> arrivals;
    for (double t = 0.0; t < duration_s; t += gap_s) arrivals.push_back(t);
    return arrivals;
  }

  /// One corruption window covering [30, 90) on instance 0.
  static FaultSchedule CorruptionWindow() {
    FaultSchedule schedule;
    schedule.events.push_back({.kind = FaultKind::kSilentCorruption,
                               .instance = 0,
                               .start_s = 30.0,
                               .duration_s = 60.0});
    return schedule;
  }

  InstanceCatalog catalog_;
  CloudSimulator sim_;
  ServingSimulator serving_;
  ModelProfile profile_;
  VariantPerf perf_;
};

TEST_F(SdcServingTest, OffIgnoresCorruptionWindowsEntirely) {
  const auto arrivals = PacedArrivals(120.0, 0.05);
  const ServingPolicy policy{.max_batch = 32, .max_wait_s = 0.05};
  // kSilentCorruption never takes an instance down, so with the default
  // kOff policy the dynamics (and the whole report) must be bitwise
  // identical to a run with no schedule at all.
  const ServingReport clean = serving_.SimulateFaulted(
      OneP2(), perf_, arrivals, 120.0, policy, {}, FaultSchedule{});
  const ServingReport corrupted = serving_.SimulateFaulted(
      OneP2(), perf_, arrivals, 120.0, policy, {}, CorruptionWindow());
  EXPECT_EQ(corrupted.requests, clean.requests);
  EXPECT_EQ(corrupted.completed, clean.completed);
  EXPECT_EQ(corrupted.mean_latency_s, clean.mean_latency_s);
  EXPECT_EQ(corrupted.utilization, clean.utilization);
  EXPECT_EQ(corrupted.corrupted_batches, 0);
  EXPECT_EQ(corrupted.sdc_detected, 0);
  EXPECT_EQ(corrupted.sdc_escaped, 0);
  EXPECT_EQ(corrupted.delivered_accuracy_weighted_goodput,
            corrupted.accuracy_weighted_goodput);
}

TEST_F(SdcServingTest, NoneLetsEverythingEscapeAndDiscountsDelivered) {
  const auto arrivals = PacedArrivals(120.0, 0.05);
  const ServingPolicy policy{.max_batch = 32, .max_wait_s = 0.05};
  const ServingReport report = serving_.SimulateFaulted(
      OneP2(), perf_, arrivals, 120.0, policy, {}, CorruptionWindow(),
      InflightPolicy::kRequeue, /*variant_accuracy=*/0.9, {},
      {.kind = SdcPolicyKind::kNone});
  EXPECT_GT(report.corrupted_batches, 0);
  EXPECT_EQ(report.sdc_detected, 0);
  EXPECT_EQ(report.sdc_escaped, report.corrupted_batches);
  EXPECT_GT(report.sdc_escaped_requests, 0);
  EXPECT_LT(report.delivered_accuracy_weighted_goodput,
            report.accuracy_weighted_goodput);
}

TEST_F(SdcServingTest, AbftDetectsAndReservesCorruptedBatches) {
  const auto arrivals = PacedArrivals(120.0, 0.05);
  const ServingPolicy policy{.max_batch = 32, .max_wait_s = 0.05};
  const ServingReport report = serving_.SimulateFaulted(
      OneP2(), perf_, arrivals, 120.0, policy, {}, CorruptionWindow(),
      InflightPolicy::kRequeue, /*variant_accuracy=*/0.9, {},
      {.kind = SdcPolicyKind::kAbft});
  EXPECT_GT(report.corrupted_batches, 0);
  // Coverage 0.995: the deterministic thinning detects floor(0.995 n).
  EXPECT_GE(report.sdc_detected,
            static_cast<std::int64_t>(
                std::floor(static_cast<double>(report.corrupted_batches) *
                           kAbftCoverage)));
  EXPECT_EQ(report.sdc_detected + report.sdc_escaped,
            report.corrupted_batches);
}

TEST_F(SdcServingTest, ThinningDetectsTheCoverageFraction) {
  // A long window so many corrupted batches accumulate.
  FaultSchedule schedule;
  schedule.events.push_back({.kind = FaultKind::kSilentCorruption,
                             .instance = 0,
                             .start_s = 0.0,
                             .duration_s = 600.0});
  const auto arrivals = PacedArrivals(600.0, 0.05);
  const ServingPolicy policy{.max_batch = 32, .max_wait_s = 0.05};
  const ServingReport report = serving_.SimulateFaulted(
      OneP2(), perf_, arrivals, 600.0, policy, {}, schedule,
      InflightPolicy::kRequeue, 1.0, {},
      {.kind = SdcPolicyKind::kReexecSample, .sample_fraction = 0.5});
  ASSERT_GT(report.corrupted_batches, 10);
  // The low-discrepancy thinning detects half, up to rounding.
  EXPECT_LE(std::llabs(report.sdc_detected - report.corrupted_batches / 2),
            1);
}

TEST_F(SdcServingTest, CheckpointRestoreCarriesSdcCounters) {
  const auto arrivals = PacedArrivals(120.0, 0.05);
  const ServingPolicy policy{.max_batch = 32, .max_wait_s = 0.05};
  const SdcPolicy sdc{.kind = SdcPolicyKind::kAbft};

  FaultedServingEngine straight(serving_, OneP2(), perf_, arrivals, 120.0,
                                policy, {}, CorruptionWindow(),
                                InflightPolicy::kRequeue, 0.9, {}, sdc);
  while (!straight.Done()) straight.Step();
  const ServingReport expected = straight.Finish();
  ASSERT_GT(expected.corrupted_batches, 0);

  FaultedServingEngine first(serving_, OneP2(), perf_, arrivals, 120.0,
                             policy, {}, CorruptionWindow(),
                             InflightPolicy::kRequeue, 0.9, {}, sdc);
  // Step past the corruption window's onset so counters are mid-flight.
  while (!first.Done() && first.Watermark() < 60.0) first.Step();
  const std::string snapshot = first.Checkpoint();

  FaultedServingEngine resumed(serving_, OneP2(), perf_, arrivals, 120.0,
                               policy, {}, CorruptionWindow(),
                               InflightPolicy::kRequeue, 0.9, {}, sdc);
  resumed.Restore(snapshot);
  while (!resumed.Done()) resumed.Step();
  const ServingReport report = resumed.Finish();

  EXPECT_EQ(report.corrupted_batches, expected.corrupted_batches);
  EXPECT_EQ(report.sdc_detected, expected.sdc_detected);
  EXPECT_EQ(report.sdc_escaped, expected.sdc_escaped);
  EXPECT_EQ(report.sdc_escaped_requests, expected.sdc_escaped_requests);
  EXPECT_EQ(report.delivered_accuracy_weighted_goodput,
            expected.delivered_accuracy_weighted_goodput);
  EXPECT_EQ(report.mean_latency_s, expected.mean_latency_s);
  EXPECT_EQ(report.utilization, expected.utilization);
}

TEST_F(SdcServingTest, RestoreRejectsSnapshotFromDifferentSdcPolicy) {
  const auto arrivals = PacedArrivals(60.0, 0.1);
  const ServingPolicy policy{.max_batch = 32, .max_wait_s = 0.05};
  FaultedServingEngine none_engine(serving_, OneP2(), perf_, arrivals, 60.0,
                                   policy, {}, CorruptionWindow(),
                                   InflightPolicy::kRequeue, 1.0, {},
                                   {.kind = SdcPolicyKind::kNone});
  while (!none_engine.Done() && none_engine.Watermark() < 10.0) {
    none_engine.Step();
  }
  const std::string snapshot = none_engine.Checkpoint();

  FaultedServingEngine abft_engine(serving_, OneP2(), perf_, arrivals, 60.0,
                                   policy, {}, CorruptionWindow(),
                                   InflightPolicy::kRequeue, 1.0, {},
                                   {.kind = SdcPolicyKind::kAbft});
  EXPECT_THROW(abft_engine.Restore(snapshot), CheckError);
}

}  // namespace
}  // namespace ccperf::cloud
