// Checkpoint/restore subsystem: the serving engine must be resumable from a
// snapshot taken at any fault event with a *bitwise identical* final report,
// checkpointed runs must never perturb the dynamics (only the bill), and
// the spot-economics model must price snapshots + lost recompute per the
// paper's Eqs. 1-4.
#include "cloud/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cloud/density.h"
#include "cloud/serving.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/snapshot.h"

namespace ccperf::cloud {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest()
      : catalog_(InstanceCatalog::AwsEc2()),
        sim_(catalog_),
        serving_(sim_),
        profile_(CaffeNetProfile()),
        perf_(ComputeVariantPerf(profile_, DensityFromPlan(profile_, {}),
                                 "nonpruned")) {}

  ResourceConfig Fleet(int instances = 1) {
    ResourceConfig config;
    config.Add("p2.xlarge", instances);
    return config;
  }

  std::vector<double> PoissonTrace(double rate, double duration,
                                   std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> trace;
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng.NextDouble()) / rate;
      if (t > duration) break;
      trace.push_back(t);
    }
    return trace;
  }

  FaultSchedule CrashStorm(int instances, double duration,
                           std::uint64_t seed) {
    const FaultModel model{.crash_rate = 160.0,
                           .restart_s = 5.0,
                           .slowdown_rate = 80.0,
                           .slowdown_s = 8.0,
                           .slowdown_factor = 2.5};
    Rng rng(seed);
    return GenerateFaultSchedule(model, instances, duration, rng);
  }

  InstanceCatalog catalog_;
  CloudSimulator sim_;
  ServingSimulator serving_;
  ModelProfile profile_;
  VariantPerf perf_;
};

/// Field-by-field exact comparison — EXPECT_EQ on doubles is deliberate:
/// the durability invariant is *bitwise* equality, not tolerance.
void ExpectReportsIdentical(const ServingReport& a, const ServingReport& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.p50_latency_s, b.p50_latency_s);
  EXPECT_EQ(a.p95_latency_s, b.p95_latency_s);
  EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_EQ(a.max_queue, b.max_queue);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.cost_per_hour_usd, b.cost_per_hour_usd);
  EXPECT_EQ(a.stable, b.stable);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped_deadline, b.dropped_deadline);
  EXPECT_EQ(a.dropped_failed, b.dropped_failed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.goodput_per_s, b.goodput_per_s);
  EXPECT_EQ(a.deadline_miss_rate, b.deadline_miss_rate);
  EXPECT_EQ(a.accuracy_weighted_goodput, b.accuracy_weighted_goodput);
}

// ---------------------------------------------------------------- engine

TEST_F(CheckpointTest, EngineReproducesSimulateFaulted) {
  const double duration = 120.0;
  const auto trace = PoissonTrace(15.0, duration, 31);
  const FaultSchedule faults = CrashStorm(2, duration, 7);
  const ServingPolicy policy{
      .max_batch = 32, .max_wait_s = 0.05, .deadline_s = 2.0};
  const RetryPolicy retry{.max_retries = 3};

  const ServingReport reference = serving_.SimulateFaulted(
      Fleet(2), perf_, trace, duration, policy, retry, faults);
  FaultedServingEngine engine(serving_, Fleet(2), perf_, trace, duration,
                              policy, retry, faults);
  double watermark = 0.0;
  while (!engine.Done()) {
    engine.Step();
    EXPECT_GE(engine.Watermark(), watermark) << "watermark must be monotone";
    watermark = engine.Watermark();
  }
  ExpectReportsIdentical(engine.Finish(), reference);
  EXPECT_THROW(engine.Step(), CheckError) << "stepping a finished engine";
}

TEST_F(CheckpointTest, FinishBeforeDoneThrows) {
  FaultedServingEngine engine(serving_, Fleet(), perf_,
                              PoissonTrace(10.0, 30.0, 1), 30.0, {}, {}, {});
  EXPECT_THROW((void)engine.Finish(), CheckError);
}

TEST_F(CheckpointTest, FinishedEngineRefusesFinishAndCheckpoint) {
  // Finish() selects the latency percentiles in place, reordering the
  // engine's samples, so nothing may read them after it: not a second
  // Finish(), and not a Checkpoint(), whose bytes carry them. A Restore()
  // replaces every sample and resumes the engine.
  const double duration = 60.0;
  const auto trace = PoissonTrace(10.0, duration, 5);
  const FaultSchedule faults = CrashStorm(1, duration, 3);
  const ServingPolicy policy{
      .max_batch = 16, .max_wait_s = 0.05, .deadline_s = 2.0};
  const RetryPolicy retry{.max_retries = 2};
  FaultedServingEngine engine(serving_, Fleet(), perf_, trace, duration,
                              policy, retry, faults);
  while (engine.Watermark() < duration / 2 && !engine.Done()) engine.Step();
  const std::string midway = engine.Checkpoint();
  while (!engine.Done()) engine.Step();
  const ServingReport report = engine.Finish();
  EXPECT_THROW((void)engine.Finish(), CheckError);
  EXPECT_THROW((void)engine.Checkpoint(), CheckError);

  engine.Restore(midway);
  while (!engine.Done()) engine.Step();
  ExpectReportsIdentical(engine.Finish(), report);
}

// The tentpole invariant: kill the run at *every* fault event, restore the
// snapshot into a fresh engine, and the finished report must be bitwise
// identical to the uninterrupted run.
TEST_F(CheckpointTest, KillAtEveryFaultEventResumesBitwiseIdentically) {
  const double duration = 90.0;
  const auto trace = PoissonTrace(20.0, duration, 77);
  const FaultSchedule faults = CrashStorm(2, duration, 13);
  ASSERT_GE(faults.events.size(), 4u) << "storm too quiet to exercise kills";
  const ServingPolicy policy{
      .max_batch = 16, .max_wait_s = 0.02, .deadline_s = 1.5};
  const RetryPolicy retry{.max_retries = 4, .base_backoff_s = 0.02};

  const ServingReport reference = serving_.SimulateFaulted(
      Fleet(2), perf_, trace, duration, policy, retry, faults);

  for (const FaultEvent& event : faults.events) {
    // Run a victim engine until the fault's instant is covered, then
    // "kill" it: all that survives is the snapshot bytes.
    FaultedServingEngine victim(serving_, Fleet(2), perf_, trace, duration,
                                policy, retry, faults);
    while (!victim.Done() && victim.Watermark() < event.start_s) {
      victim.Step();
    }
    const std::string snapshot = victim.Checkpoint();

    FaultedServingEngine resumed(serving_, Fleet(2), perf_, trace, duration,
                                 policy, retry, faults);
    resumed.Restore(snapshot);
    EXPECT_EQ(resumed.Watermark(), victim.Watermark());
    while (!resumed.Done()) resumed.Step();
    ExpectReportsIdentical(resumed.Finish(), reference);
  }
}

// The snapshot bytes themselves are pinned: size and CRC-32 of a mid-run
// checkpoint of a small seeded faulted run, recorded from the
// element-at-a-time encoder with the byte-at-a-time CRC that preceded the
// bulk ones. A change to the engine's state layout or to the wire format
// must show up here, not only as a failed restore.
TEST_F(CheckpointTest, MidRunSnapshotBytesArePinned) {
  const double duration = 90.0;
  const auto trace = PoissonTrace(20.0, duration, 77);
  const FaultSchedule faults = CrashStorm(2, duration, 13);
  const ServingPolicy policy{
      .max_batch = 16, .max_wait_s = 0.02, .deadline_s = 1.5};
  const RetryPolicy retry{.max_retries = 4, .base_backoff_s = 0.02};
  FaultedServingEngine engine(serving_, Fleet(2), perf_, trace, duration,
                              policy, retry, faults);
  while (!engine.Done() && engine.Watermark() < duration / 2) engine.Step();
  ASSERT_EQ(trace.size(), 1819u);
  ASSERT_EQ(engine.Watermark(), 45.089699497252965);
  const std::string snapshot = engine.Checkpoint();
  EXPECT_EQ(snapshot.size(), 38123u);
  EXPECT_EQ(Crc32(snapshot), 0x5F8C400Cu);
}

/// CRC-32 chained over the raw bits of every ServingReport field, in
/// declaration order (field by field, so struct padding never enters).
std::uint32_t ReportCrc(const ServingReport& r) {
  std::uint32_t crc = 0;
  const auto put = [&crc](const auto& field) {
    crc = Crc32Update(crc, &field, sizeof(field));
  };
  put(r.requests);
  put(r.duration_s);
  put(r.mean_latency_s);
  put(r.p50_latency_s);
  put(r.p95_latency_s);
  put(r.p99_latency_s);
  put(r.max_queue);
  put(r.utilization);
  put(r.cost_per_hour_usd);
  put(r.stable);
  put(r.completed);
  put(r.dropped_deadline);
  put(r.dropped_failed);
  put(r.retries);
  put(r.deadline_misses);
  put(r.goodput_per_s);
  put(r.deadline_miss_rate);
  put(r.accuracy_weighted_goodput);
  put(r.hedges);
  put(r.duplicate_completions);
  put(r.discarded_copies);
  put(r.duplicate_service_s);
  put(r.corrupted_batches);
  put(r.sdc_detected);
  put(r.sdc_escaped);
  put(r.sdc_escaped_requests);
  put(r.delivered_accuracy_weighted_goodput);
  return crc;
}

// Replicas and hedges: the redundancy section then holds live-copy and
// hedge counts above 1, which the single-copy pin above never encodes.
TEST_F(CheckpointTest, RedundantMidRunSnapshotBytesArePinned) {
  const double duration = 90.0;
  const auto trace = PoissonTrace(20.0, duration, 77);
  const FaultSchedule faults = CrashStorm(2, duration, 13);
  const ServingPolicy policy{
      .max_batch = 16, .max_wait_s = 0.02, .deadline_s = 1.5};
  const RetryPolicy retry{.max_retries = 4, .base_backoff_s = 0.02};
  const RedundancyPolicy redundancy{
      .replicas = 2, .hedge_after_s = 0.01, .max_hedges = 2};
  FaultedServingEngine engine(serving_, Fleet(2), perf_, trace, duration,
                              policy, retry, faults, InflightPolicy::kRequeue,
                              1.0, redundancy);
  while (!engine.Done() && engine.Watermark() < duration / 2) engine.Step();
  const std::string snapshot = engine.Checkpoint();

  const std::uint32_t serving_tag = 0x46535256u;  // 'FSRV'
  SnapshotSectionReader section =
      SnapshotReader::Parse(snapshot, serving_tag).Section("redundancy");
  (void)section.TakeU8Vector();
  const std::vector<std::int64_t> live = section.TakeI64Vector();
  const std::vector<std::int64_t> hedges = section.TakeI64Vector();
  ASSERT_GT(*std::max_element(live.begin(), live.end()), 1);
  ASSERT_GT(*std::max_element(hedges.begin(), hedges.end()), 1);

  EXPECT_EQ(snapshot.size(), 40155u);
  EXPECT_EQ(Crc32(snapshot), 0x534D4DECu);
}

// Every report field of SimulateFaulted, bit for bit, with and without
// redundancy, on a quiet fleet and in a crash storm that retries and
// drops past deadlines. Batches of 4 within 0.2 s at 20 requests/s: some
// dispatches wait out max_wait_s, others go when the trace fills them.
TEST_F(CheckpointTest, FaultedReportBitsArePinned) {
  const double duration = 90.0;
  const auto trace = PoissonTrace(20.0, duration, 77);
  const ServingPolicy policy{
      .max_batch = 4, .max_wait_s = 0.2, .deadline_s = 1.5};
  const RetryPolicy retry{.max_retries = 4, .base_backoff_s = 0.02};
  const RedundancyPolicy redundant{
      .replicas = 2, .hedge_after_s = 0.01, .max_hedges = 2};
  const FaultSchedule storm = CrashStorm(2, duration, 13);
  struct Case {
    RedundancyPolicy redundancy;
    const FaultSchedule* faults;
    std::uint32_t crc;
  };
  const FaultSchedule quiet;
  const Case cases[] = {{{}, &quiet, 0x121AE176u},
                        {{}, &storm, 0xA475A1F5u},
                        {redundant, &quiet, 0xEC84DEF1u},
                        {redundant, &storm, 0x2788190Du}};
  for (const Case& c : cases) {
    const ServingReport report = serving_.SimulateFaulted(
        Fleet(2), perf_, trace, duration, policy, retry, *c.faults,
        InflightPolicy::kRequeue, 1.0, c.redundancy);
    if (c.faults == &storm) {
      ASSERT_GT(report.retries, 0);
      ASSERT_GT(report.dropped_deadline, 0);
    }
    EXPECT_EQ(ReportCrc(report), c.crc)
        << "replicas " << c.redundancy.replicas << ", "
        << c.faults->events.size() << " fault events";
  }
}

// Every snapshot a checkpointed run keeps, in order, under the batching
// policy of the report pins above.
TEST_F(CheckpointTest, CheckpointedHistoryBytesArePinned) {
  const double duration = 90.0;
  const auto trace = PoissonTrace(20.0, duration, 77);
  const ServingPolicy policy{
      .max_batch = 4, .max_wait_s = 0.2, .deadline_s = 1.5};
  const RetryPolicy retry{.max_retries = 4, .base_backoff_s = 0.02};
  CheckpointStats stats;
  stats.keep_history = true;
  (void)serving_.SimulateFaultedCheckpointed(
      Fleet(2), perf_, trace, duration, policy, retry,
      CrashStorm(2, duration, 13), {.interval_s = 10.0}, &stats);
  ASSERT_EQ(stats.history.size(), 8u);
  std::uint32_t crc = 0;
  std::size_t bytes = 0;
  for (const auto& [watermark, snapshot] : stats.history) {
    crc = Crc32Update(crc, &watermark, sizeof(watermark));
    crc = Crc32Update(crc, snapshot.data(), snapshot.size());
    bytes += snapshot.size();
  }
  EXPECT_EQ(bytes, 301560u);
  EXPECT_EQ(crc, 0x3E884DD4u);
}

TEST_F(CheckpointTest, Int8VariantResumesBitwiseIdenticallyMidRun) {
  // Quantized variants (int8-enabled ComputeVariantPerf) are first-class
  // serving citizens: kill a mid-run engine serving an int8 variant at
  // several fault events and the restored runs must finish with bitwise
  // identical reports. The snapshot fingerprint covers the variant's perf,
  // so an int8 snapshot must not restore into a float-variant engine.
  const VariantPerf int8_perf = ComputeVariantPerf(
      profile_, DensityFromPlan(profile_, {}), "nonpruned-int8",
      /*int8_enabled=*/true);
  EXPECT_LT(int8_perf.ref_seconds_per_image.value(),
            perf_.ref_seconds_per_image.value())
      << "the quantized kernel must be modeled as faster than float";

  const double duration = 90.0;
  const auto trace = PoissonTrace(20.0, duration, 77);
  const FaultSchedule faults = CrashStorm(2, duration, 13);
  ASSERT_GE(faults.events.size(), 2u);
  const ServingPolicy policy{
      .max_batch = 16, .max_wait_s = 0.02, .deadline_s = 1.5};
  const RetryPolicy retry{.max_retries = 4, .base_backoff_s = 0.02};

  const ServingReport reference = serving_.SimulateFaulted(
      Fleet(2), int8_perf, trace, duration, policy, retry, faults);

  for (const FaultEvent& event : faults.events) {
    FaultedServingEngine victim(serving_, Fleet(2), int8_perf, trace,
                                duration, policy, retry, faults);
    while (!victim.Done() && victim.Watermark() < event.start_s) {
      victim.Step();
    }
    const std::string snapshot = victim.Checkpoint();

    FaultedServingEngine resumed(serving_, Fleet(2), int8_perf, trace,
                                 duration, policy, retry, faults);
    resumed.Restore(snapshot);
    while (!resumed.Done()) resumed.Step();
    ExpectReportsIdentical(resumed.Finish(), reference);

    // The same snapshot must be rejected by a float-variant engine: the
    // variant identity is part of the run fingerprint.
    FaultedServingEngine float_engine(serving_, Fleet(2), perf_, trace,
                                      duration, policy, retry, faults);
    EXPECT_THROW(float_engine.Restore(snapshot), CheckError);
  }
}

// 72 hours of the serving benchmark's fault model on 8 instances write a
// schedule CSV past 64 KiB. The run fingerprints all of it: it runs,
// round-trips a snapshot, and an edit past the CSV's first 64 KiB is
// another run.
TEST_F(CheckpointTest, FaultScheduleCsvPast64KiBIsFingerprintedWhole) {
  const double duration = 72 * 3600.0;
  const FaultModel model{.crash_rate = 2.0,
                         .restart_s = 120.0,
                         .slowdown_rate = 1.0,
                         .slowdown_s = 60.0,
                         .slowdown_factor = 2.0,
                         .sdc_rate = 0.5,
                         .sdc_window_s = 120.0};
  Rng rng(72);
  const FaultSchedule faults = GenerateFaultSchedule(model, 8, duration, rng);
  const std::string csv = FaultScheduleCsv(faults);
  ASSERT_GT(csv.size(), std::size_t{1} << 16);
  ResourceConfig fleet;
  fleet.Add("g3.4xlarge", 8);
  const auto trace = PoissonTrace(50.0, 60.0, 3);
  const ServingPolicy policy{
      .max_batch = 16, .max_wait_s = 0.02, .deadline_s = 1.5};

  const ServingReport reference = serving_.SimulateFaulted(
      fleet, perf_, trace, duration, policy, {}, faults);
  EXPECT_EQ(reference.completed + reference.dropped_deadline +
                reference.dropped_failed,
            reference.requests);
  FaultedServingEngine victim(serving_, fleet, perf_, trace, duration, policy,
                              {}, faults);
  while (!victim.Done() && victim.Watermark() < 30.0) victim.Step();
  const std::string snapshot = victim.Checkpoint();
  FaultedServingEngine resumed(serving_, fleet, perf_, trace, duration,
                               policy, {}, faults);
  resumed.Restore(snapshot);
  while (!resumed.Done()) resumed.Step();
  ExpectReportsIdentical(resumed.Finish(), reference);

  FaultSchedule edited = faults;
  edited.events.back().duration_s += 1.0;
  const std::string edited_csv = FaultScheduleCsv(edited);
  ASSERT_NE(edited_csv, csv);
  ASSERT_EQ(edited_csv.compare(0, std::size_t{1} << 16, csv, 0,
                               std::size_t{1} << 16),
            0);
  FaultedServingEngine other(serving_, fleet, perf_, trace, duration, policy,
                             {}, edited);
  EXPECT_THROW(other.Restore(snapshot), CheckError);
}

TEST_F(CheckpointTest, RestoreRejectsMismatchedInputsAndForeignSnapshots) {
  const auto trace = PoissonTrace(10.0, 60.0, 5);
  FaultedServingEngine engine(serving_, Fleet(), perf_, trace, 60.0, {}, {},
                              {});
  engine.Step();
  const std::string snapshot = engine.Checkpoint();

  // Different trace -> different fingerprint.
  auto other_trace = trace;
  other_trace.push_back(other_trace.back() + 1.0);
  FaultedServingEngine other(serving_, Fleet(), perf_, other_trace, 60.0, {},
                             {}, {});
  EXPECT_THROW(other.Restore(snapshot), CheckError);

  // Different policy on the same trace is also a different run.
  FaultedServingEngine strict(serving_, Fleet(), perf_, trace, 60.0,
                              {.max_batch = 2}, {}, {});
  EXPECT_THROW(strict.Restore(snapshot), CheckError);

  // A well-formed snapshot from another subsystem (another app tag) is
  // rejected.
  SnapshotWriter foreign(0x4F46464Cu);  // 'OFFL'
  foreign.AddSection("meta").PutU32(0);
  FaultedServingEngine same(serving_, Fleet(), perf_, trace, 60.0, {}, {},
                            {});
  EXPECT_THROW(same.Restore(foreign.Serialize()), CheckError);
  EXPECT_THROW(same.Restore(std::string("not a snapshot")), CheckError);
}

// ------------------------------------------------------ checkpointed runs

TEST_F(CheckpointTest, CheckpointedRunChargesOverheadWithoutPerturbing) {
  const double duration = 120.0;
  const auto trace = PoissonTrace(12.0, duration, 41);
  const FaultSchedule faults = CrashStorm(1, duration, 3);
  const ServingPolicy policy{.max_batch = 32, .max_wait_s = 0.05};
  const RetryPolicy retry{.max_retries = 2};
  const CheckpointPolicy checkpoint{.trigger = CheckpointTrigger::kPeriodic,
                                    .interval_s = 10.0,
                                    .snapshot_cost_s = 2.0};

  const ServingReport plain = serving_.SimulateFaulted(
      Fleet(), perf_, trace, duration, policy, retry, faults);
  CheckpointStats stats;
  const ServingReport checked = serving_.SimulateFaultedCheckpointed(
      Fleet(), perf_, trace, duration, policy, retry, faults, checkpoint,
      &stats);
  ExpectReportsIdentical(checked, plain);

  EXPECT_GT(stats.snapshots, 0);
  EXPECT_LE(stats.snapshots, 12) << "at most one per 10 s interval";
  EXPECT_DOUBLE_EQ(stats.snapshot_overhead_s, stats.snapshots * 2.0);
  EXPECT_DOUBLE_EQ(
      stats.overhead_cost_usd,
      stats.snapshot_overhead_s / 3600.0 *
          PricePerHour(Fleet(), catalog_).value());
  EXPECT_GT(stats.last_snapshot_s, 0.0);
  ASSERT_FALSE(stats.latest.empty());

  // The latest snapshot is restorable and completes to the same report.
  FaultedServingEngine resumed(serving_, Fleet(), perf_, trace, duration,
                               policy, retry, faults);
  resumed.Restore(stats.latest);
  while (!resumed.Done()) resumed.Step();
  ExpectReportsIdentical(resumed.Finish(), plain);
}

TEST_F(CheckpointTest, KeepHistoryRecordsEverySnapshot) {
  const auto trace = PoissonTrace(10.0, 60.0, 9);
  CheckpointStats stats;
  stats.keep_history = true;
  (void)serving_.SimulateFaultedCheckpointed(
      Fleet(), perf_, trace, 60.0, {}, {}, {},
      {.interval_s = 15.0, .snapshot_cost_s = 0.5}, &stats);
  EXPECT_EQ(static_cast<int>(stats.history.size()), stats.snapshots);
  for (std::size_t i = 1; i < stats.history.size(); ++i) {
    EXPECT_GT(stats.history[i].first, stats.history[i - 1].first);
  }
}

// ----------------------------------------------------- policies & triggers

TEST(CheckpointPolicyTest, ValidationAndTriggerNames) {
  EXPECT_NO_THROW(ValidateCheckpointPolicy({}));
  EXPECT_THROW(ValidateCheckpointPolicy({.interval_s = 0.0}), CheckError);
  EXPECT_THROW(ValidateCheckpointPolicy({.warning_lead_s = -1.0}),
               CheckError);
  EXPECT_THROW(ValidateCheckpointPolicy({.snapshot_cost_s = -0.5}),
               CheckError);
  EXPECT_STREQ(CheckpointTriggerName(CheckpointTrigger::kPeriodic),
               "periodic");
  EXPECT_STREQ(CheckpointTriggerName(CheckpointTrigger::kOnPreemptionWarning),
               "on-warning");
  EXPECT_STREQ(CheckpointTriggerName(CheckpointTrigger::kAdaptive),
               "adaptive");
}

TEST(CheckpointPolicyTest, YoungIntervalMatchesClosedForm) {
  EXPECT_DOUBLE_EQ(YoungInterval(2.0, 3600.0), std::sqrt(2.0 * 2.0 * 3600.0));
  EXPECT_THROW((void)YoungInterval(0.0, 3600.0), CheckError);
  EXPECT_THROW((void)YoungInterval(1.0, 0.0), CheckError);
}

TEST(CheckpointPolicyTest, PeriodicInstantsCoverTheRun) {
  const auto instants = CheckpointInstants(
      {.trigger = CheckpointTrigger::kPeriodic, .interval_s = 25.0}, {},
      100.0, 1);
  ASSERT_EQ(instants.size(), 3u);
  EXPECT_DOUBLE_EQ(instants[0], 25.0);
  EXPECT_DOUBLE_EQ(instants[2], 75.0);
}

TEST(CheckpointPolicyTest, WarningInstantsLeadEachFault) {
  FaultSchedule faults;
  faults.events = {{FaultKind::kCrash, 0, 50.0, 5.0, 1.0},
                   {FaultKind::kCrash, 0, 100.0, 5.0, 1.0},
                   {FaultKind::kPreemption, 0, 119.0, 0.0, 1.0}};
  const auto instants = CheckpointInstants(
      {.trigger = CheckpointTrigger::kOnPreemptionWarning,
       .warning_lead_s = 120.0},
      faults, 120.0, 1);
  // 50 - 120 < 0 is dropped; the others snapshot 120 s ahead... except the
  // lead pushes the first two before t=0 too. Use a shorter lead to check
  // the arithmetic.
  const auto close = CheckpointInstants(
      {.trigger = CheckpointTrigger::kOnPreemptionWarning,
       .warning_lead_s = 10.0},
      faults, 120.0, 1);
  ASSERT_EQ(close.size(), 3u);
  EXPECT_DOUBLE_EQ(close[0], 40.0);
  EXPECT_DOUBLE_EQ(close[1], 90.0);
  EXPECT_DOUBLE_EQ(close[2], 109.0);
  EXPECT_TRUE(instants.empty() || instants.front() > 0.0);
}

TEST(CheckpointPolicyTest, AdaptiveUsesYoungAndFallsBackWhenFaultFree) {
  // Fault-free: adaptive degrades to the configured periodic interval.
  const auto fallback = CheckpointInstants(
      {.trigger = CheckpointTrigger::kAdaptive, .interval_s = 40.0}, {},
      120.0, 1);
  ASSERT_EQ(fallback.size(), 2u);
  EXPECT_DOUBLE_EQ(fallback[0], 40.0);

  // With faults, the cadence follows Young's optimum for the observed MTBF.
  FaultSchedule faults;
  for (int k = 0; k < 10; ++k) {
    faults.events.push_back({FaultKind::kCrash, 0, 10.0 + 10.0 * k, 2.0, 1.0});
  }
  const CheckpointPolicy adaptive{.trigger = CheckpointTrigger::kAdaptive,
                                  .interval_s = 40.0,
                                  .snapshot_cost_s = 1.0};
  const auto instants = CheckpointInstants(adaptive, faults, 120.0, 1);
  // rate = 10 faults / (120/3600) instance-hours = 300/h; MTBF = 12 s;
  // Young = sqrt(2 * 1 * 12) ~ 4.9 s.
  const double young = YoungInterval(1.0, 3600.0 / 300.0);
  ASSERT_FALSE(instants.empty());
  EXPECT_NEAR(instants[0], young, 1e-9);
  EXPECT_GT(instants.size(), fallback.size())
      << "denser faults mean denser snapshots";
}

TEST(CheckpointPolicyTest, AdaptiveHorizonShorterThanASnapshotHasNoInstants) {
  // A 0.5-s horizon is shorter than the 1-s snapshot: the interval resolves
  // to the horizon itself, so no snapshot lands inside the run, whether the
  // interval comes from the fallback or from Young's formula.
  const CheckpointPolicy adaptive{.trigger = CheckpointTrigger::kAdaptive,
                                  .snapshot_cost_s = 1.0};
  EXPECT_TRUE(CheckpointInstants(adaptive, {}, 0.5, 1).empty());
  FaultSchedule faults;
  faults.events = {{FaultKind::kCrash, 0, 0.2, 0.1, 1.0}};
  EXPECT_TRUE(CheckpointInstants(adaptive, faults, 0.5, 1).empty());
}

// --------------------------------------------------------- spot economics

TEST_F(CheckpointTest, SpotEstimateUndercutsOnDemandAtModestRisk) {
  const CheckpointPolicy policy{.trigger = CheckpointTrigger::kAdaptive,
                                .interval_s = 300.0,
                                .snapshot_cost_s = 5.0};
  const SpotRunEstimate est =
      EstimateSpotRun(sim_, Fleet(), perf_, 1000000, policy,
                      RatePerHour(0.5));
  EXPECT_GT(est.base_seconds.value(), 0.0);
  EXPECT_GT(est.snapshot_overhead_s.value(), 0.0);
  EXPECT_GT(est.expected_preemptions, 0.0);
  EXPECT_GT(est.expected_seconds, est.base_seconds);
  // The ~70% spot discount dominates the recompute overhead at 0.5/h.
  EXPECT_LT(est.expected_spot_cost_usd, est.on_demand_cost_usd);

  // Zero preemption risk: no recompute, only snapshot overhead.
  const SpotRunEstimate safe =
      EstimateSpotRun(sim_, Fleet(), perf_, 1000000, policy,
                      RatePerHour(0.0));
  EXPECT_DOUBLE_EQ(safe.expected_preemptions, 0.0);
  EXPECT_DOUBLE_EQ(safe.expected_seconds.value(),
                   (safe.base_seconds + safe.snapshot_overhead_s).value());
}

TEST_F(CheckpointTest, SpotRunShorterThanASnapshotTakesOne) {
  // 100 images on one p2.xlarge take ~3.58 s, less than one 5-s snapshot:
  // the interval resolves to the whole run, which pays for one snapshot.
  for (const CheckpointTrigger trigger :
       {CheckpointTrigger::kPeriodic, CheckpointTrigger::kAdaptive}) {
    const CheckpointPolicy policy{
        .trigger = trigger, .interval_s = 300.0, .snapshot_cost_s = 5.0};
    const SpotRunEstimate est = EstimateSpotRun(sim_, Fleet(), perf_, 100,
                                                policy, RatePerHour(0.05));
    EXPECT_NEAR(est.base_seconds.value(), 3.58, 0.005);
    EXPECT_EQ(est.interval_s, est.base_seconds);
    EXPECT_EQ(est.snapshot_overhead_s, Seconds(5.0));
    EXPECT_NEAR(est.expected_seconds.value(), 8.58748216176334, 1e-9);
  }
}

TEST_F(CheckpointTest, SpotEstimateRequiresASpotMarket) {
  // A custom catalog without spot pricing must be rejected.
  InstanceCatalog no_spot(
      {{"x.gpu", "x", 4, 1, 32.0, 12.0, UsdPerHour(1.0), GpuKind::kK80}},
      {GpuSpec{.kind = GpuKind::kK80,
               .name = "NVIDIA K80",
               .cores = 2496,
               .mem_gb = 12.0,
               .relative_speed = 1.0}});
  CloudSimulator sim(no_spot);
  ResourceConfig config;
  config.Add("x.gpu");
  EXPECT_THROW(
      (void)EstimateSpotRun(sim, config, perf_, 1000, {}, RatePerHour(0.5)),
      CheckError);
  EXPECT_THROW(
      (void)EstimateSpotRun(sim_, Fleet(), perf_, 1000, {},
                            RatePerHour(-1.0)),
      CheckError);
}

TEST(SnapshotVault, PutGetRoundTripAndMonotoneWatermark) {
  SnapshotVault vault;
  // A name nothing was published under fails loudly.
  EXPECT_THROW((void)vault.GetReachable("run-a", {}), CheckError);
  EXPECT_THROW((void)vault.ReachableWatermark("run-a", {}), CheckError);
  vault.PutMirrored("run-a", 10.0, "snap@10", {0});
  EXPECT_EQ(vault.GetReachable("run-a", {}), "snap@10");
  EXPECT_EQ(vault.ReachableWatermark("run-a", {}), 10.0);
  // Stale republish (a restarted runner replaying) is ignored...
  vault.PutMirrored("run-a", 5.0, "snap@5", {0});
  EXPECT_EQ(vault.GetReachable("run-a", {}), "snap@10");
  EXPECT_EQ(vault.ReachableWatermark("run-a", {}), 10.0);
  // ...newer snapshots replace.
  vault.PutMirrored("run-a", 20.0, "snap@20", {0});
  EXPECT_EQ(vault.GetReachable("run-a", {}), "snap@20");
  EXPECT_EQ(vault.ReachableWatermark("run-a", {}), 20.0);
  // Names are independent: an older snapshot of another run lands as is.
  vault.PutMirrored("run-b", 1.0, "other", {0});
  EXPECT_EQ(vault.GetReachable("run-b", {}), "other");
  EXPECT_EQ(vault.ReachableWatermark("run-a", {}), 20.0);
  EXPECT_THROW((void)vault.ReachableWatermark("missing", {}), CheckError);
}

TEST(SnapshotVault, MirroredCopiesFailOverAcrossDomains) {
  SnapshotVault vault;
  vault.PutMirrored("run", 10.0, "snap@10", {2, 4});
  EXPECT_EQ(vault.GetReachable("run", {}), "snap@10");
  EXPECT_EQ(vault.ReachableWatermark("run", {}), 10.0);

  // Only domain 4 received the newer snapshot (its mirror write to 2 was
  // lost): each domain keeps its own highest watermark.
  vault.PutMirrored("run", 20.0, "snap@20", {4});
  EXPECT_EQ(vault.GetReachable("run", {}), "snap@20");
  EXPECT_EQ(vault.ReachableWatermark("run", {}), 20.0);

  // Partition domain 4 away: failover serves domain 2's older copy.
  EXPECT_EQ(vault.GetReachable("run", {4}), "snap@10");
  EXPECT_EQ(vault.ReachableWatermark("run", {4}), 10.0);
  // Both domains gone -> loud data loss, not a silent empty restore.
  EXPECT_THROW((void)vault.GetReachable("run", {2, 4}), CheckError);
  EXPECT_THROW((void)vault.ReachableWatermark("run", {2, 4}), CheckError);

  // A stale mirrored republish is ignored per domain: domain 2 moves up to
  // 15, domain 4 keeps 20.
  vault.PutMirrored("run", 15.0, "snap@15", {2, 4});
  EXPECT_EQ(vault.GetReachable("run", {4}), "snap@15");
  EXPECT_EQ(vault.GetReachable("run", {}), "snap@20");
}

TEST_F(CheckpointTest, SpotEstimateIsContinuousAtZeroRisk) {
  // The expected-recompute term must vanish smoothly as the preemption
  // rate goes to zero: no branch discontinuity between the faulted and
  // fault-free pricing paths.
  const CheckpointPolicy policy{.trigger = CheckpointTrigger::kPeriodic,
                                .interval_s = 300.0,
                                .snapshot_cost_s = 5.0};
  const SpotRunEstimate at_zero =
      EstimateSpotRun(sim_, Fleet(), perf_, 1000000, policy,
                      RatePerHour(0.0));
  const SpotRunEstimate near_zero =
      EstimateSpotRun(sim_, Fleet(), perf_, 1000000, policy,
                      RatePerHour(1e-9));
  EXPECT_NEAR(near_zero.expected_seconds.value(),
              at_zero.expected_seconds.value(), 1e-3);
  EXPECT_NEAR(near_zero.expected_spot_cost_usd.value(),
              at_zero.expected_spot_cost_usd.value(), 1e-6);
  EXPECT_NEAR(near_zero.expected_recompute_s.value(), 0.0, 1e-3);
  // And the risk premium is monotone from there.
  const SpotRunEstimate risky =
      EstimateSpotRun(sim_, Fleet(), perf_, 1000000, policy,
                      RatePerHour(0.5));
  EXPECT_GT(risky.expected_seconds, near_zero.expected_seconds);
  EXPECT_GT(risky.expected_spot_cost_usd, near_zero.expected_spot_cost_usd);
}

TEST_F(CheckpointTest, VaultScrubCatchesEveryByteFlip) {
  // SnapshotVault::VerifyAllSections is the storage-side integrity scrub:
  // a single flipped byte ANYWHERE in a stored snapshot — header, section
  // table, or payload — must be reported, and a clean vault must verify.
  const auto trace = PoissonTrace(20.0, 15.0, 9);
  const ServingPolicy policy{.max_batch = 32, .max_wait_s = 0.05};
  FaultedServingEngine engine(serving_, Fleet(), perf_, trace, 15.0, policy,
                              {}, FaultSchedule{});
  while (!engine.Done() && engine.Watermark() < 10.0) engine.Step();
  const std::string snapshot = engine.Checkpoint();
  ASSERT_GT(snapshot.size(), 0u);

  SnapshotVault clean;
  clean.PutMirrored("run", 10.0, snapshot, {0});
  clean.PutMirrored("mirrored", 10.0, snapshot, {0, 1});
  const SnapshotVault::ScrubReport clean_report = clean.VerifyAllSections();
  EXPECT_TRUE(clean_report.ok());
  EXPECT_EQ(clean_report.copies_checked, 3u);  // run + two mirror domains

  // One vault holding every possible single-byte corruption of the
  // snapshot, each under its own name: one scrub must flag them all.
  SnapshotVault vault;
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    std::string damaged = snapshot;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x20);
    vault.PutMirrored("flip-" + std::to_string(i), 10.0, damaged, {0});
  }
  const SnapshotVault::ScrubReport report = vault.VerifyAllSections();
  EXPECT_EQ(report.copies_checked, snapshot.size());
  EXPECT_EQ(report.corrupted.size(), snapshot.size())
      << "some byte flips escaped the scrub";
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace ccperf::cloud
