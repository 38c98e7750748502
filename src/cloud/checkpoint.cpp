#include "cloud/checkpoint.h"

#include <algorithm>
#include <cmath>

#include "cloud/pricing.h"
#include "common/check.h"
#include "common/snapshot.h"

namespace ccperf::cloud {

namespace {

/// Per-instance-hour fault density of a schedule (all kinds), the MTBF
/// input of the adaptive trigger. Zero for an empty schedule.
double FaultRatePerInstanceHour(const FaultSchedule& faults,
                                double duration_s, int instances) {
  if (faults.events.empty()) return 0.0;
  const double instance_hours =
      static_cast<double>(instances) * duration_s / 3600.0;
  return static_cast<double>(faults.events.size()) / instance_hours;
}

}  // namespace

const char* CheckpointTriggerName(CheckpointTrigger trigger) {
  switch (trigger) {
    case CheckpointTrigger::kPeriodic:
      return "periodic";
    case CheckpointTrigger::kOnPreemptionWarning:
      return "on-warning";
    case CheckpointTrigger::kAdaptive:
      return "adaptive";
  }
  return "?";
}

void ValidateCheckpointPolicy(const CheckpointPolicy& policy) {
  CCPERF_CHECK(policy.interval_s > 0.0 && std::isfinite(policy.interval_s),
               "checkpoint interval must be positive, got ",
               policy.interval_s);
  CCPERF_CHECK(policy.warning_lead_s >= 0.0 &&
                   std::isfinite(policy.warning_lead_s),
               "warning lead must be >= 0, got ", policy.warning_lead_s);
  CCPERF_CHECK(policy.snapshot_cost_s >= 0.0 &&
                   std::isfinite(policy.snapshot_cost_s),
               "snapshot cost must be >= 0, got ", policy.snapshot_cost_s);
  CCPERF_CHECK(policy.mirror_copies >= 1, "mirror copies must be >= 1, got ",
               policy.mirror_copies);
  CCPERF_CHECK(policy.mirror_cost_s >= 0.0 &&
                   std::isfinite(policy.mirror_cost_s),
               "mirror cost must be >= 0, got ", policy.mirror_cost_s);
}

double YoungInterval(double snapshot_cost_s, double mtbf_s) {
  CCPERF_CHECK(snapshot_cost_s > 0.0 && mtbf_s > 0.0,
               "Young's interval needs positive snapshot cost and MTBF");
  return std::sqrt(2.0 * snapshot_cost_s * mtbf_s);
}

std::vector<double> CheckpointInstants(const CheckpointPolicy& policy,
                                       const FaultSchedule& faults,
                                       double duration_s, int instances) {
  ValidateCheckpointPolicy(policy);
  CCPERF_CHECK(duration_s > 0.0, "duration must be positive");
  CCPERF_CHECK(instances >= 1, "need at least one instance");
  faults.Validate();

  std::vector<double> instants;
  const auto periodic = [&](double interval) {
    for (double t = interval; t < duration_s; t += interval) {
      instants.push_back(t);
    }
  };
  switch (policy.trigger) {
    case CheckpointTrigger::kPeriodic:
      periodic(policy.interval_s);
      break;
    case CheckpointTrigger::kOnPreemptionWarning:
      for (const FaultEvent& event : faults.events) {
        const double t = event.start_s - policy.warning_lead_s;
        if (t > 0.0 && t < duration_s) instants.push_back(t);
      }
      break;
    case CheckpointTrigger::kAdaptive: {
      const RatePerHour rate(
          FaultRatePerInstanceHour(faults, duration_s, instances));
      periodic(ExpectCheckpointedSpotRun(policy, Seconds(duration_s), rate,
                                         instances, Seconds(0.0))
                   .interval.value());
      break;
    }
  }
  std::sort(instants.begin(), instants.end());
  instants.erase(std::unique(instants.begin(), instants.end()),
                 instants.end());
  return instants;
}

CheckpointedSpotTerms ExpectCheckpointedSpotRun(const CheckpointPolicy& policy,
                                                Seconds base,
                                                RatePerHour preemption_rate,
                                                int instances,
                                                Seconds restart) {
  // Raw doubles in a fixed expression order: the sweep's golden frontiers
  // are computed from exactly these operations.
  const double base_s = base.value();
  const double rate = preemption_rate.value();
  const double cost = policy.snapshot_cost_s;
  double interval = policy.interval_s;
  if (policy.trigger == CheckpointTrigger::kAdaptive && rate > 0.0 &&
      cost > 0.0) {
    interval = YoungInterval(cost, 3600.0 / rate);
  }
  // Never snapshot more often than a snapshot takes, never less than once
  // per run; a run shorter than one snapshot takes one, at its end.
  interval = std::min(std::max(interval, std::max(cost, 1e-3)),
                      std::max(base_s, 1e-3));
  const double overhead = std::floor(base_s / interval) * cost;
  const double preemptions = rate * instances * ((base_s + overhead) / 3600.0);
  const double window =
      policy.trigger == CheckpointTrigger::kOnPreemptionWarning
          ? 0.0
          : interval / 2.0;
  CheckpointedSpotTerms terms;
  terms.interval = Seconds(interval);
  terms.snapshot_overhead = Seconds(overhead);
  terms.expected_preemptions = preemptions;
  terms.lost = Seconds(preemptions * window);
  terms.reprovision = Seconds(preemptions * restart.value());
  return terms;
}

SpotRunEstimate EstimateSpotRun(const CloudSimulator& sim,
                                const ResourceConfig& config,
                                const VariantPerf& perf, std::int64_t images,
                                const CheckpointPolicy& policy,
                                RatePerHour preemption_rate,
                                Seconds restart) {
  ValidateCheckpointPolicy(policy);
  CCPERF_CHECK(preemption_rate >= RatePerHour(0.0),
               "preemption rate must be >= 0");
  CCPERF_CHECK(restart >= Seconds(0.0), "restart time must be >= 0");

  const RunEstimate base = sim.Run(config, perf, images);
  const CheckpointedSpotTerms spot = ExpectCheckpointedSpotRun(
      policy, base.seconds, preemption_rate, config.TotalInstances(), restart);
  SpotRunEstimate est;
  est.interval_s = spot.interval;
  est.base_seconds = base.seconds;
  est.snapshot_overhead_s = spot.snapshot_overhead;
  est.expected_recompute_s = spot.lost + spot.reprovision;
  est.expected_preemptions = spot.expected_preemptions;
  est.expected_seconds =
      base.seconds + spot.snapshot_overhead + spot.lost + spot.reprovision;
  est.on_demand_cost_usd = base.cost_usd;

  UsdPerHour spot_price;
  for (const auto& [type, count] : config.instances) {
    const InstanceType& t = sim.Catalog().Find(type);
    CCPERF_CHECK(t.spot_price_per_hour > UsdPerHour(0.0),
                 "instance type '", type, "' has no spot market");
    spot_price += t.spot_price_per_hour * count;
  }
  est.expected_spot_cost_usd = ProratedCost(est.expected_seconds, spot_price);
  return est;
}

void SnapshotVault::PutMirrored(const std::string& name, double watermark,
                                const std::string& snapshot,
                                const std::vector<int>& domains) {
  CCPERF_CHECK(watermark >= 0.0, "snapshot watermark must be >= 0, got ",
               watermark);
  CCPERF_CHECK(!domains.empty(), "snapshot must land in at least one domain");
  MutexLock lock(mutex_);
  std::map<int, Entry>& copies = entries_[name];
  for (const int domain : domains) {
    Entry& entry = copies[domain];
    if (entry.watermark > watermark && !entry.bytes.empty()) continue;
    entry.watermark = watermark;
    entry.bytes = snapshot;
  }
}

const SnapshotVault::Entry& SnapshotVault::BestReachableLocked(
    const std::string& name, const std::vector<int>& unreachable) const {
  const Entry* best = nullptr;
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    for (const auto& [domain, entry] : it->second) {
      if (std::find(unreachable.begin(), unreachable.end(), domain) !=
          unreachable.end()) {
        continue;
      }
      // Strict > : on watermark ties the lowest domain index (first in map
      // order) wins, independent of publish order.
      if (best == nullptr || entry.watermark > best->watermark) {
        best = &entry;
      }
    }
  }
  CCPERF_CHECK(best != nullptr, "no reachable snapshot for '", name,
               "' (published copies may all sit in partitioned domains)");
  return *best;
}

std::string SnapshotVault::GetReachable(
    const std::string& name, const std::vector<int>& unreachable) const {
  MutexLock lock(mutex_);
  return BestReachableLocked(name, unreachable).bytes;
}

double SnapshotVault::ReachableWatermark(
    const std::string& name, const std::vector<int>& unreachable) const {
  MutexLock lock(mutex_);
  return BestReachableLocked(name, unreachable).watermark;
}

SnapshotVault::ScrubReport SnapshotVault::VerifyAllSections() const {
  MutexLock lock(mutex_);
  ScrubReport report;
  // std::map iteration gives (name, domain) order deterministically, so the
  // corrupted list is stable across runs regardless of publish order.
  for (const auto& [name, domains] : entries_) {
    for (const auto& [domain, entry] : domains) {
      ++report.copies_checked;
      if (!SnapshotIntact(entry.bytes)) {
        report.corrupted.push_back(CorruptCopy{name, domain});
      }
    }
  }
  return report;
}

}  // namespace ccperf::cloud
