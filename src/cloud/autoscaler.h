// Reactive autoscaler: the *resource*-elasticity baseline the paper's
// related work (§2.2: PRESS, cost-aware provisioning, auto-scaling under
// deadlines) pursues, built on the serving simulator so it can be compared
// head-to-head with the paper's *accuracy*-elasticity knob.
//
// The autoscaler is deliberately classic: it observes the previous epoch's
// GPU utilization and scales the homogeneous fleet toward a target
// utilization, one epoch of lag — the lag is exactly what accuracy
// elasticity (instant variant switch) does not pay.
#pragma once

#include <string>
#include <vector>

#include "cloud/serving.h"
#include "common/units.h"

namespace ccperf::cloud {

/// Reactive scaling policy.
struct AutoscalePolicy {
  double target_utilization = 0.6;  // scale so next-epoch util ~ target
  int min_instances = 1;
  int max_instances = 16;
  /// Fault-aware extension (RunFaulted only): when the previous epoch
  /// dropped or missed more than this fraction of requests, step up even
  /// if utilization alone would not demand it.
  double miss_rate_step_up = 0.05;
};

/// Throws CheckError unless bounds are ordered, target utilization is in
/// (0, 1) and miss_rate_step_up is in (0, 1].
void ValidateAutoscalePolicy(const AutoscalePolicy& policy);

/// One epoch of an autoscaled run.
struct AutoscaleStep {
  int epoch = 0;
  int instances = 0;
  ServingReport report;
};

/// Whole-run summary.
struct AutoscaleResult {
  std::vector<AutoscaleStep> steps;
  Usd total_cost_usd;            // instance-hours billed across epochs
  double worst_p99_s = 0.0;
  bool always_stable = true;
  /// Fraction of all requests completed within their deadline (RunFaulted;
  /// 1.0 when no deadline is configured and nothing is dropped).
  double slo_compliance = 1.0;
};

/// Epoch-driven reactive autoscaler over a homogeneous fleet of one
/// instance type.
class Autoscaler {
 public:
  /// `simulator` must outlive the autoscaler.
  Autoscaler(const ServingSimulator& serving, std::string instance_type);

  /// Serve `epochs` epochs of `epoch_s` seconds each; `arrivals[e]` is the
  /// full arrival trace of epoch e in epoch-local time. Scaling decisions
  /// use the previous epoch's utilization (reactive, one epoch of lag).
  [[nodiscard]] AutoscaleResult Run(
      const std::vector<std::vector<double>>& arrivals, double epoch_s,
      const VariantPerf& perf, const AutoscalePolicy& policy,
      const ServingPolicy& serving_policy) const;

  /// Fault-aware variant: epochs are served with SimulateFaulted against
  /// `faults` (global time, sliced per epoch; instance indices address the
  /// fleet as sized that epoch). Scaling additionally reacts to failure
  /// signals: an epoch whose deadline-miss/drop rate exceeds
  /// `policy.miss_rate_step_up` forces at least one extra instance, and an
  /// unstable epoch still jumps to max. Still one epoch of reactive lag —
  /// the lag accuracy elasticity does not pay.
  [[nodiscard]] AutoscaleResult RunFaulted(
      const std::vector<std::vector<double>>& arrivals, double epoch_s,
      const VariantPerf& perf, const AutoscalePolicy& policy,
      const ServingPolicy& serving_policy, const RetryPolicy& retry,
      const FaultSchedule& faults) const;

 private:
  const ServingSimulator& serving_;
  std::string instance_type_;
};

}  // namespace ccperf::cloud
