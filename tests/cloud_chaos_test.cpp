// Correlated-failure fault domains and the chaos harness: topology
// validation and placement, seeded domain-event generation, lowering onto
// placed instances, replication/hedging semantics, the policy x scenario
// sweep (parallel == serial, bitwise), its spread premium, and the mirrored
// kill/restore drill.
#include "cloud/chaos.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cloud/density.h"
#include "cloud/fault_domains.h"
#include "cloud/serving.h"
#include "common/check.h"
#include "common/rng.h"

namespace ccperf::cloud {
namespace {

// Every field, compared exactly: two runs of the same seeded scenario must
// produce the same *bytes*, not merely close numbers.
void ExpectSameReport(const ServingReport& a, const ServingReport& b) {
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
  EXPECT_EQ(a.hedges, b.hedges);
  EXPECT_EQ(a.duplicate_completions, b.duplicate_completions);
  EXPECT_EQ(a.discarded_copies, b.discarded_copies);
  EXPECT_EQ(a.duplicate_service_s, b.duplicate_service_s);
}

class ChaosTest : public ::testing::Test {
 protected:
  ChaosTest()
      : catalog_(InstanceCatalog::AwsEc2()),
        sim_(catalog_),
        serving_(sim_),
        profile_(CaffeNetProfile()),
        perf_(ComputeVariantPerf(profile_, DensityFromPlan(profile_, {}),
                                 "nonpruned")) {}

  ResourceConfig Fleet(int instances) {
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

  InstanceCatalog catalog_;
  CloudSimulator sim_;
  ServingSimulator serving_;
  ModelProfile profile_;
  VariantPerf perf_;
};

// ---------------------------------------------------------------- topology

TEST(FaultDomainTopology, UniformBuildsValidTree) {
  const FaultDomainTopology topo = FaultDomainTopology::Uniform(2, 2, 2);
  EXPECT_NO_THROW(topo.Validate());
  EXPECT_EQ(topo.domains.size(), 2u + 4u + 8u);
  EXPECT_EQ(topo.PoolIndices().size(), 8u);
  EXPECT_EQ(topo.domains[0].name, "r0");
  EXPECT_EQ(topo.domains[1].name, "r0z0");
  EXPECT_EQ(topo.domains[2].name, "r0z0p0");
}

TEST(FaultDomainTopology, ValidateRejectsBadStructure) {
  FaultDomainTopology zone_without_parent;
  zone_without_parent.domains.push_back({"z", -1, DomainLevel::kZone});
  EXPECT_THROW(zone_without_parent.Validate(), CheckError);

  FaultDomainTopology pool_under_region = FaultDomainTopology::Uniform(1, 1,
                                                                       1);
  pool_under_region.domains.push_back({"bad", 0, DomainLevel::kPool});
  EXPECT_THROW(pool_under_region.Validate(), CheckError);

  FaultDomainTopology misplaced = FaultDomainTopology::Uniform(1, 1, 1);
  misplaced.instance_domain = {1};  // a zone, not a pool
  EXPECT_THROW(misplaced.Validate(), CheckError);
}

TEST(FaultDomainTopology, PackAndSpreadPlacement) {
  // Uniform(1, 2, 1): 0=r0, 1=r0z0, 2=r0z0p0, 3=r0z1, 4=r0z1p0.
  FaultDomainTopology topo = FaultDomainTopology::Uniform(1, 2, 1);
  topo.PlaceInstances(4, PlacementSpread::kPack);
  EXPECT_EQ(topo.instance_domain, (std::vector<int>{2, 2, 2, 2}));
  EXPECT_EQ(topo.InstancesIn(1), (std::vector<int>{0, 1, 2, 3}));

  topo.PlaceInstances(4, PlacementSpread::kSpread);
  EXPECT_EQ(topo.instance_domain, (std::vector<int>{2, 4, 2, 4}));
  EXPECT_EQ(topo.InstancesIn(1), (std::vector<int>{0, 2}));
  EXPECT_EQ(topo.InstancesIn(3), (std::vector<int>{1, 3}));
  EXPECT_TRUE(topo.Contains(1, 4));
  EXPECT_TRUE(topo.Contains(1, 0));
  EXPECT_FALSE(topo.Contains(1, 2));
}

// --------------------------------------------------------------- generator

TEST(CorrelatedSchedule, GeneratorIsDeterministicAndValid) {
  const FaultDomainTopology topo = FaultDomainTopology::Uniform(1, 3, 2);
  CorrelatedFaultModel model;
  model.outage_rate = 4.0;
  model.reclaim_wave_rate = 6.0;
  model.reclaim_fraction = 0.5;
  model.partition_rate = 3.0;

  Rng rng_a(99);
  Rng rng_b(99);
  const CorrelatedSchedule a =
      GenerateCorrelatedSchedule(model, topo, 3600.0, rng_a);
  const CorrelatedSchedule b =
      GenerateCorrelatedSchedule(model, topo, 3600.0, rng_b);
  EXPECT_NO_THROW(a.Validate(topo));
  EXPECT_FALSE(a.Empty()) << "rates this high must produce events";
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].domain, b.events[i].domain);
    EXPECT_EQ(a.events[i].start_s, b.events[i].start_s);
    EXPECT_EQ(a.events[i].duration_s, b.events[i].duration_s);
    EXPECT_EQ(a.events[i].seed, b.events[i].seed);
  }

  Rng rng_c(100);
  const CorrelatedSchedule c =
      GenerateCorrelatedSchedule(model, topo, 3600.0, rng_c);
  bool differs = c.events.size() != a.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = a.events[i].start_s != c.events[i].start_s;
  }
  EXPECT_TRUE(differs) << "different seeds should draw different incidents";
}

TEST(CorrelatedSchedule, ZeroRatesGenerateNothing) {
  const FaultDomainTopology topo = FaultDomainTopology::Uniform(1, 2, 2);
  Rng rng(1);
  EXPECT_TRUE(
      GenerateCorrelatedSchedule({}, topo, 3600.0, rng).Empty());
}

TEST(CorrelatedSchedule, ValidateRejectsBadEvents) {
  const FaultDomainTopology topo = FaultDomainTopology::Uniform(1, 1, 1);
  CorrelatedSchedule wrong_kind;
  wrong_kind.events.push_back({FaultKind::kCrash, 1, 1.0, 10.0, 1.0, 0});
  EXPECT_THROW(wrong_kind.Validate(topo), CheckError);

  CorrelatedSchedule bad_domain;
  bad_domain.events.push_back(
      {FaultKind::kDomainOutage, 9, 1.0, 10.0, 1.0, 0});
  EXPECT_THROW(bad_domain.Validate(topo), CheckError);

  CorrelatedSchedule unsorted;
  unsorted.events.push_back({FaultKind::kDomainOutage, 1, 5.0, 10.0, 1.0, 0});
  unsorted.events.push_back({FaultKind::kDomainOutage, 1, 1.0, 10.0, 1.0, 0});
  EXPECT_THROW(unsorted.Validate(topo), CheckError);

  CorrelatedSchedule bad_fraction;
  bad_fraction.events.push_back(
      {FaultKind::kReclaimWave, 2, 1.0, 0.0, 1.5, 0});
  EXPECT_THROW(bad_fraction.Validate(topo), CheckError);
}

// ---------------------------------------------------------------- lowering

TEST(LowerCorrelatedSchedule, OutageHitsEveryInstanceInTheZone) {
  FaultDomainTopology topo = FaultDomainTopology::Uniform(1, 2, 1);
  topo.PlaceInstances(4, PlacementSpread::kSpread);  // pools 2,4,2,4
  CorrelatedSchedule schedule;
  schedule.events.push_back(
      {FaultKind::kDomainOutage, 1, 100.0, 600.0, 1.0, 0});  // zone r0z0
  const FaultSchedule lowered = LowerCorrelatedSchedule(schedule, topo);
  ASSERT_EQ(lowered.events.size(), 2u);  // instances 0 and 2 live in r0z0
  EXPECT_EQ(lowered.events[0].instance, 0);
  EXPECT_EQ(lowered.events[1].instance, 2);
  for (const FaultEvent& event : lowered.events) {
    EXPECT_EQ(event.kind, FaultKind::kDomainOutage);
    EXPECT_EQ(event.start_s, 100.0);
    EXPECT_EQ(event.duration_s, 600.0);
  }
}

TEST(LowerCorrelatedSchedule, WavePreemptsSeededFractionOfThePool) {
  FaultDomainTopology topo = FaultDomainTopology::Uniform(1, 1, 1);
  topo.PlaceInstances(8, PlacementSpread::kPack);
  CorrelatedSchedule schedule;
  schedule.events.push_back(
      {FaultKind::kReclaimWave, 2, 50.0, 0.0, 0.5, 777});
  const FaultSchedule lowered = LowerCorrelatedSchedule(schedule, topo);
  ASSERT_EQ(lowered.events.size(), 4u);  // ceil(0.5 * 8)
  for (const FaultEvent& event : lowered.events) {
    EXPECT_EQ(event.kind, FaultKind::kReclaimWave);
    EXPECT_EQ(event.start_s, 50.0);
    EXPECT_GE(event.instance, 0);
    EXPECT_LT(event.instance, 8);
  }
  // Victims ascend (sorted) and replay identically.
  const FaultSchedule again = LowerCorrelatedSchedule(schedule, topo);
  for (std::size_t i = 0; i < lowered.events.size(); ++i) {
    EXPECT_EQ(lowered.events[i].instance, again.events[i].instance);
    if (i > 0) {
      EXPECT_LT(lowered.events[i - 1].instance, lowered.events[i].instance);
    }
  }
  // A different victim seed picks a different set (for this seed pair).
  schedule.events[0].seed = 778;
  const FaultSchedule other = LowerCorrelatedSchedule(schedule, topo);
  bool differs = false;
  for (std::size_t i = 0; i < lowered.events.size(); ++i) {
    differs = differs ||
              lowered.events[i].instance != other.events[i].instance;
  }
  EXPECT_TRUE(differs);
}

TEST(LowerCorrelatedSchedule, ComposesWithIndependentTraceViaMerge) {
  FaultDomainTopology topo = FaultDomainTopology::Uniform(1, 1, 1);
  topo.PlaceInstances(2, PlacementSpread::kPack);
  CorrelatedSchedule schedule;
  schedule.events.push_back({FaultKind::kPartition, 1, 30.0, 60.0, 1.0, 0});
  const FaultSchedule lowered = LowerCorrelatedSchedule(schedule, topo);

  FaultSchedule independent;
  independent.events.push_back({FaultKind::kCrash, 0, 10.0, 20.0, 1.0});
  independent.events.push_back({FaultKind::kSlowdown, 1, 30.0, 40.0, 2.0});

  const FaultSchedule merged = MergeFaultSchedules(independent, lowered);
  EXPECT_NO_THROW(merged.Validate());
  ASSERT_EQ(merged.events.size(), 4u);
  EXPECT_EQ(merged.events[0].kind, FaultKind::kCrash);
  // Stable merge: on the 30.0 tie the first schedule's event precedes.
  EXPECT_EQ(merged.events[1].kind, FaultKind::kSlowdown);
  EXPECT_EQ(merged.events[2].kind, FaultKind::kPartition);
  EXPECT_EQ(merged.events[2].instance, 0);
  EXPECT_EQ(merged.events[3].instance, 1);
}

// ------------------------------------------------------ redundancy serving

TEST_F(ChaosTest, DefaultRedundancyReproducesBaselineExactly) {
  const std::vector<double> trace = PoissonTrace(120.0, 60.0, 5);
  FaultSchedule faults;
  faults.events.push_back({FaultKind::kCrash, 0, 10.0, 15.0, 1.0});
  ServingPolicy policy;
  policy.deadline_s = 0.5;
  const ServingReport baseline = serving_.SimulateFaulted(
      Fleet(2), perf_, trace, 60.0, policy, RetryPolicy{}, faults);
  const ServingReport with_default = serving_.SimulateFaulted(
      Fleet(2), perf_, trace, 60.0, policy, RetryPolicy{}, faults,
      InflightPolicy::kRequeue, 1.0, RedundancyPolicy{});
  ExpectSameReport(baseline, with_default);
  EXPECT_EQ(with_default.hedges, 0);
  EXPECT_EQ(with_default.duplicate_completions, 0);
  EXPECT_EQ(with_default.discarded_copies, 0);
}

TEST_F(ChaosTest, ReplicationSurvivesAReclaimWaveThatKillsOneInstance) {
  const std::vector<double> trace = PoissonTrace(60.0, 60.0, 9);
  FaultSchedule faults;
  faults.events.push_back({FaultKind::kReclaimWave, 0, 20.0, 0.0, 1.0});
  ServingPolicy policy;
  RetryPolicy no_retry;
  no_retry.max_retries = 0;

  const ServingReport single = serving_.SimulateFaulted(
      Fleet(2), perf_, trace, 60.0, policy, no_retry, faults,
      InflightPolicy::kDrop);
  RedundancyPolicy replicate;
  replicate.replicas = 2;
  const ServingReport redundant = serving_.SimulateFaulted(
      Fleet(2), perf_, trace, 60.0, policy, no_retry, faults,
      InflightPolicy::kDrop, 1.0, replicate);

  EXPECT_LE(redundant.dropped_failed, single.dropped_failed);
  EXPECT_GE(redundant.completed, single.completed);
  // Duplicate copies of completed requests are still served and billed.
  EXPECT_GT(redundant.duplicate_completions, 0);
  EXPECT_GT(redundant.duplicate_service_s, 0.0);
  EXPECT_EQ(redundant.requests, single.requests)
      << "replication multiplies copies, not requests";
}

TEST_F(ChaosTest, HedgingSpawnsBoundedHedges) {
  const std::vector<double> trace = PoissonTrace(80.0, 30.0, 11);
  FaultSchedule faults;
  faults.events.push_back({FaultKind::kCrash, 0, 2.0, 20.0, 1.0});
  ServingPolicy policy;
  RedundancyPolicy hedge;
  hedge.hedge_after_s = 0.2;
  hedge.max_hedges = 1;
  const ServingReport report = serving_.SimulateFaulted(
      Fleet(2), perf_, trace, 30.0, policy, RetryPolicy{}, faults,
      InflightPolicy::kRequeue, 1.0, hedge);
  EXPECT_GT(report.hedges, 0);
  EXPECT_LE(report.hedges, report.requests * hedge.max_hedges);
}

TEST_F(ChaosTest, SpreadPlacementBeatsPackUnderAPoolWave) {
  // One wave takes the whole primary pool. Packed, that is the entire
  // fleet; spread, it is one instance of three.
  FaultDomainTopology topo = FaultDomainTopology::Uniform(1, 3, 1);
  CorrelatedSchedule schedule;
  schedule.events.push_back({FaultKind::kReclaimWave, 2, 20.0, 0.0, 1.0, 1});
  const std::vector<double> trace = PoissonTrace(90.0, 60.0, 13);
  ServingPolicy policy;
  RetryPolicy no_retry;
  no_retry.max_retries = 0;

  topo.PlaceInstances(3, PlacementSpread::kPack);
  const ServingReport packed = serving_.SimulateFaulted(
      Fleet(3), perf_, trace, 60.0, policy, no_retry,
      LowerCorrelatedSchedule(schedule, topo), InflightPolicy::kDrop);
  topo.PlaceInstances(3, PlacementSpread::kSpread);
  const ServingReport spread = serving_.SimulateFaulted(
      Fleet(3), perf_, trace, 60.0, policy, no_retry,
      LowerCorrelatedSchedule(schedule, topo), InflightPolicy::kDrop);

  EXPECT_GT(spread.completed, packed.completed);
  EXPECT_LT(spread.dropped_failed, packed.dropped_failed);
}

// -------------------------------------------------------------- chaos sweep

TEST_F(ChaosTest, SeededScenarioRunsAreBitwiseIdentical) {
  ChaosSweep sweep(serving_, FaultDomainTopology::Uniform(1, 3, 1), Fleet(3),
                   0.1);
  ChaosConfig config;
  config.perf = perf_;
  config.degraded_perf = perf_;
  config.degraded_accuracy = 0.8;
  config.arrivals = PoissonTrace(90.0, 120.0, 21);
  config.duration_s = 120.0;
  config.serving.deadline_s = 1.0;

  MitigationPolicy policy;
  policy.name = "full-mix";
  policy.redundancy.replicas = 2;
  policy.redundancy.hedge_after_s = 0.5;
  policy.redundancy.max_hedges = 1;
  policy.spread = PlacementSpread::kSpread;
  policy.checkpointed = true;
  policy.checkpoint.interval_s = 20.0;

  IncidentScenario scenario;
  scenario.name = "wave+outage";
  scenario.correlated.reclaim_wave_rate = 40.0;
  scenario.correlated.reclaim_fraction = 0.8;
  scenario.correlated.outage_rate = 20.0;
  scenario.correlated.outage_s = 30.0;
  scenario.independent.crash_rate = 30.0;
  scenario.seed = 4242;

  const ChaosOutcome a = sweep.RunOne(policy, scenario, config);
  const ChaosOutcome b = sweep.RunOne(policy, scenario, config);
  ExpectSameReport(a.report, b.report);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.cost_usd, b.cost_usd);
  EXPECT_EQ(a.cost_per_kilo_good, b.cost_per_kilo_good);
  EXPECT_EQ(a.checkpoint.snapshots, b.checkpoint.snapshots);
  EXPECT_GT(a.cost_usd, 0.0);
  EXPECT_GT(a.availability, 0.0);
}

TEST_F(ChaosTest, RankMatchesSerialRunOneBitwise) {
  ChaosSweep sweep(serving_, FaultDomainTopology::Uniform(1, 3, 1), Fleet(3),
                   0.05);
  ChaosConfig config;
  config.perf = perf_;
  config.degraded_perf = perf_;
  config.degraded_accuracy = 0.8;
  config.arrivals = PoissonTrace(80.0, 60.0, 31);
  config.duration_s = 60.0;
  config.serving.deadline_s = 1.0;

  std::vector<MitigationPolicy> policies(3);
  policies[0].name = "retry-only";
  policies[1].name = "replicate-spread";
  policies[1].redundancy.replicas = 2;
  policies[1].spread = PlacementSpread::kSpread;
  policies[2].name = "degrade-spread";
  policies[2].degrade = true;
  policies[2].spread = PlacementSpread::kSpread;

  std::vector<IncidentScenario> scenarios(2);
  scenarios[0].name = "waves";
  scenarios[0].correlated.reclaim_wave_rate = 60.0;
  scenarios[0].correlated.reclaim_fraction = 1.0;
  scenarios[0].seed = 7;
  scenarios[1].name = "outage";
  scenarios[1].correlated.outage_rate = 40.0;
  scenarios[1].correlated.outage_s = 20.0;
  scenarios[1].seed = 8;

  const ChaosRanking ranking = sweep.Rank(policies, scenarios, config);
  ASSERT_EQ(ranking.outcomes.size(), policies.size());
  for (std::size_t p = 0; p < policies.size(); ++p) {
    ASSERT_EQ(ranking.outcomes[p].size(), scenarios.size());
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const ChaosOutcome serial =
          sweep.RunOne(policies[p], scenarios[s], config);
      ExpectSameReport(ranking.outcomes[p][s].report, serial.report);
      EXPECT_EQ(ranking.outcomes[p][s].cost_usd, serial.cost_usd);
      EXPECT_EQ(ranking.outcomes[p][s].availability, serial.availability);
    }
  }
  ASSERT_EQ(ranking.order.size(), policies.size());
  // The order is a pure function of the outcomes: re-ranking reproduces it.
  const ChaosRanking again = sweep.Rank(policies, scenarios, config);
  EXPECT_EQ(ranking.order, again.order);
  EXPECT_EQ(ranking.mean_availability, again.mean_availability);
  EXPECT_EQ(ranking.mean_cost_usd, again.mean_cost_usd);
}

TEST_F(ChaosTest, RankRejectsInvalidCellsDeterministically) {
  ChaosSweep sweep(serving_, FaultDomainTopology::Uniform(1, 1, 1), Fleet(1));
  ChaosConfig config;
  config.perf = perf_;
  config.arrivals = PoissonTrace(10.0, 10.0, 1);
  config.duration_s = 10.0;
  std::vector<MitigationPolicy> policies(2);
  policies[0].name = "ok";
  policies[1].name = "bad";
  policies[1].redundancy.replicas = 0;  // invalid
  std::vector<IncidentScenario> scenarios(1);
  scenarios[0].name = "calm";
  try {
    (void)sweep.Rank(policies, scenarios, config);
    FAIL() << "expected CheckError";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("bad"), std::string::npos)
        << error.what();
  }
}

// --------------------------------------------------- mirrored restore drill

TEST_F(ChaosTest, MirroredKillRestoreIsBitwiseIdenticalToUninterrupted) {
  // Uniform(1, 2, 1): pools are domains 2 and 4. The run mirrors into
  // both; at the kill, pool 2 (where the primary lives) is partitioned
  // away, so the restore must come from the pool-4 mirror.
  FaultDomainTopology topo = FaultDomainTopology::Uniform(1, 2, 1);
  topo.PlaceInstances(2, PlacementSpread::kSpread);
  const std::vector<double> trace = PoissonTrace(80.0, 90.0, 17);
  CorrelatedSchedule correlated;
  correlated.events.push_back(
      {FaultKind::kDomainOutage, 1, 30.0, 25.0, 1.0, 0});
  correlated.events.push_back({FaultKind::kPartition, 3, 60.0, 20.0, 1.0, 0});
  const FaultSchedule faults = LowerCorrelatedSchedule(correlated, topo);
  ServingPolicy policy;
  policy.deadline_s = 2.0;
  RedundancyPolicy redundancy;
  redundancy.replicas = 2;
  CheckpointPolicy checkpoint;
  checkpoint.interval_s = 10.0;

  const ServingReport uninterrupted = serving_.SimulateFaulted(
      Fleet(2), perf_, trace, 90.0, policy, RetryPolicy{}, faults,
      InflightPolicy::kRequeue, 1.0, redundancy);

  SnapshotVault vault;
  const MirroredRestoreDrill drill = RunMirroredRestoreDrill(
      serving_, Fleet(2), perf_, trace, 90.0, policy, RetryPolicy{},
      redundancy, faults, checkpoint, /*mirror_domains=*/{2, 4},
      /*unreachable_at_kill=*/{2}, /*kill_at_s=*/45.0, vault, "drill");

  EXPECT_GT(drill.snapshots, 0);
  EXPECT_GT(drill.restored_watermark, 0.0);
  ExpectSameReport(drill.report, uninterrupted);

  // A partition that swallows every mirror is surfaced, not papered over.
  SnapshotVault doomed;
  EXPECT_THROW(
      (void)RunMirroredRestoreDrill(
          serving_, Fleet(2), perf_, trace, 90.0, policy, RetryPolicy{},
          redundancy, faults, checkpoint, {2, 4}, {2, 4}, 45.0, doomed,
          "doomed"),
      CheckError);
}

TEST_F(ChaosTest, RunOneBillsTheSpreadPremium) {
  // No faults, so placement cannot change the serving dynamics: the whole
  // cost difference is the premium. Spread puts 2 of 3 instances outside
  // the primary pool; pack puts none there.
  const double premium_frac = 0.25;
  const double duration = 60.0;
  ChaosSweep sweep(serving_, FaultDomainTopology::Uniform(1, 3, 1), Fleet(3),
                   premium_frac);
  ChaosConfig config;
  config.perf = perf_;
  config.arrivals = PoissonTrace(60.0, duration, 23);
  config.duration_s = duration;
  IncidentScenario calm;
  calm.name = "calm";

  MitigationPolicy pack_policy;
  pack_policy.name = "pack";
  MitigationPolicy spread_policy = pack_policy;
  spread_policy.name = "spread";
  spread_policy.spread = PlacementSpread::kSpread;
  const ChaosOutcome packed = sweep.RunOne(pack_policy, calm, config);
  const ChaosOutcome spread = sweep.RunOne(spread_policy, calm, config);

  ExpectSameReport(spread.report, packed.report);
  const double price =
      sim_.Catalog().Find("p2.xlarge").price_per_hour.value();
  EXPECT_NEAR(spread.cost_usd - packed.cost_usd,
              2.0 * price * premium_frac * duration / 3600.0, 1e-12);
}

}  // namespace
}  // namespace ccperf::cloud
