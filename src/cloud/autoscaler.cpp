#include "cloud/autoscaler.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ccperf::cloud {

Autoscaler::Autoscaler(const ServingSimulator& serving,
                       std::string instance_type)
    : serving_(serving), instance_type_(std::move(instance_type)) {}

void ValidateAutoscalePolicy(const AutoscalePolicy& policy) {
  CCPERF_CHECK(policy.min_instances >= 1 &&
                   policy.max_instances >= policy.min_instances,
               "invalid instance bounds: min ", policy.min_instances,
               " max ", policy.max_instances);
  CCPERF_CHECK(policy.target_utilization > 0.0 &&
                   policy.target_utilization < 1.0,
               "target utilization must be in (0, 1)");
  CCPERF_CHECK(policy.miss_rate_step_up > 0.0 &&
                   policy.miss_rate_step_up <= 1.0,
               "miss_rate_step_up must be in (0, 1]");
}

AutoscaleResult Autoscaler::Run(
    const std::vector<std::vector<double>>& arrivals, double epoch_s,
    const VariantPerf& perf, const AutoscalePolicy& policy,
    const ServingPolicy& serving_policy) const {
  CCPERF_CHECK(!arrivals.empty(), "need at least one epoch");
  CCPERF_CHECK(epoch_s > 0.0, "epoch length must be positive");
  ValidateAutoscalePolicy(policy);
  ValidateServingPolicy(serving_policy);

  AutoscaleResult result;
  int instances = policy.min_instances;
  for (std::size_t epoch = 0; epoch < arrivals.size(); ++epoch) {
    ResourceConfig fleet;
    fleet.Add(instance_type_, instances);
    const ServingReport report = serving_.SimulateTrace(
        fleet, perf, arrivals[epoch], epoch_s, serving_policy);

    AutoscaleStep step;
    step.epoch = static_cast<int>(epoch);
    step.instances = instances;
    step.report = report;
    result.total_cost_usd += Usd(report.cost_per_hour_usd * epoch_s / 3600.0);
    result.worst_p99_s = std::max(result.worst_p99_s, report.p99_latency_s);
    result.always_stable = result.always_stable && report.stable;
    result.steps.push_back(std::move(step));

    // Reactive decision for the next epoch: size the fleet so that this
    // epoch's load would have run at the target utilization. An unstable
    // epoch (exploding queue) forces a maximal step up.
    const double observed = result.steps.back().report.utilization;
    int next = instances;
    if (!result.steps.back().report.stable) {
      next = policy.max_instances;
    } else if (observed > 0.0) {
      next = static_cast<int>(std::ceil(
          static_cast<double>(instances) * observed /
          policy.target_utilization));
    }
    instances = std::clamp(next, policy.min_instances, policy.max_instances);
  }
  return result;
}

AutoscaleResult Autoscaler::RunFaulted(
    const std::vector<std::vector<double>>& arrivals, double epoch_s,
    const VariantPerf& perf, const AutoscalePolicy& policy,
    const ServingPolicy& serving_policy, const RetryPolicy& retry,
    const FaultSchedule& faults) const {
  CCPERF_CHECK(!arrivals.empty(), "need at least one epoch");
  CCPERF_CHECK(epoch_s > 0.0, "epoch length must be positive");
  ValidateAutoscalePolicy(policy);
  ValidateServingPolicy(serving_policy);
  ValidateRetryPolicy(retry);
  faults.Validate();

  AutoscaleResult result;
  int instances = policy.min_instances;
  std::int64_t total_requests = 0;
  std::int64_t total_in_deadline = 0;
  for (std::size_t epoch = 0; epoch < arrivals.size(); ++epoch) {
    ResourceConfig fleet;
    fleet.Add(instance_type_, instances);
    const FaultSchedule local = faults.Slice(
        static_cast<double>(epoch) * epoch_s,
        static_cast<double>(epoch + 1) * epoch_s);
    const ServingReport report = serving_.SimulateFaulted(
        fleet, perf, arrivals[epoch], epoch_s, serving_policy, retry, local);

    result.total_cost_usd += Usd(report.cost_per_hour_usd * epoch_s / 3600.0);
    result.worst_p99_s = std::max(result.worst_p99_s, report.p99_latency_s);
    result.always_stable = result.always_stable && report.stable;
    total_requests += report.requests;
    total_in_deadline += report.completed - report.deadline_misses;
    result.steps.push_back(
        {static_cast<int>(epoch), instances, report});

    // Reactive decision, fault-aware: utilization is already measured over
    // *available* GPU time, so a fleet shrunk by faults reads hot rather
    // than idle; heavy misses/drops force at least one extra instance.
    int next = instances;
    if (!report.stable) {
      next = policy.max_instances;
    } else {
      if (report.utilization > 0.0) {
        next = static_cast<int>(
            std::ceil(static_cast<double>(instances) * report.utilization /
                      policy.target_utilization));
      }
      if (report.deadline_miss_rate >= policy.miss_rate_step_up) {
        next = std::max(next, instances + 1);
      }
    }
    instances = std::clamp(next, policy.min_instances, policy.max_instances);
  }
  if (total_requests > 0) {
    result.slo_compliance = static_cast<double>(total_in_deadline) /
                            static_cast<double>(total_requests);
  }
  return result;
}

}  // namespace ccperf::cloud
