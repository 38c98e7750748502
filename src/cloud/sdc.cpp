#include "cloud/sdc.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ccperf::cloud {

void SdcPolicy::Validate() const {
  CCPERF_CHECK(std::isfinite(scrub_interval_s) && scrub_interval_s > 0.0,
               "scrub_interval_s must be finite and > 0, got ",
               scrub_interval_s);
  CCPERF_CHECK(std::isfinite(scrub_cost_s) && scrub_cost_s >= 0.0,
               "scrub_cost_s must be finite and >= 0, got ", scrub_cost_s);
  CCPERF_CHECK(scrub_cost_s < scrub_interval_s,
               "scrub_cost_s (", scrub_cost_s,
               ") must be below scrub_interval_s (", scrub_interval_s,
               ") or scrubbing consumes the whole run");
  CCPERF_CHECK(std::isfinite(sample_fraction) && sample_fraction >= 0.0 &&
                   sample_fraction <= 1.0,
               "sample_fraction must be in [0, 1], got ", sample_fraction);
}

SdcDetectionProfile DetectionProfile(const SdcPolicy& policy) {
  switch (policy.kind) {
    case SdcPolicyKind::kOff:
    case SdcPolicyKind::kNone:
      return {};
    case SdcPolicyKind::kAbft:
      return {kAbftTimeOverhead, kAbftCoverage};
    case SdcPolicyKind::kScrub:
      return {policy.scrub_cost_s / policy.scrub_interval_s, 0.0};
    case SdcPolicyKind::kReexecSample:
      return {policy.sample_fraction, policy.sample_fraction};
  }
  return {};
}

SdcAssessment AssessSdc(const SdcPolicy& policy, RatePerHour sdc_rate,
                        Seconds run_seconds_q, double transient_fraction,
                        Seconds transient_window) {
  policy.Validate();
  const double sdc_rate_per_hour = sdc_rate.value();
  const double run_seconds = run_seconds_q.value();
  const double transient_window_s = transient_window.value();
  CCPERF_CHECK(std::isfinite(sdc_rate_per_hour) && sdc_rate_per_hour >= 0.0,
               "sdc_rate_per_hour must be finite and >= 0, got ",
               sdc_rate_per_hour);
  CCPERF_CHECK(std::isfinite(run_seconds) && run_seconds >= 0.0,
               "run_seconds must be finite and >= 0, got ", run_seconds);
  CCPERF_CHECK(transient_fraction >= 0.0 && transient_fraction <= 1.0,
               "transient_fraction must be in [0, 1], got ",
               transient_fraction);
  CCPERF_CHECK(std::isfinite(transient_window_s) && transient_window_s >= 0.0,
               "transient_window_s must be finite and >= 0, got ",
               transient_window_s);

  SdcAssessment out;
  if (policy.kind == SdcPolicyKind::kOff) return out;  // not modeled

  const double lambda = sdc_rate_per_hour;
  // Expected fraction of run time spent inside a transient residency
  // window: λ·p onsets per hour, each tainting transient_window_s seconds
  // (capped at the run itself — a short run can't host a full window).
  const double window = std::min(transient_window_s, run_seconds);
  const double f_transient =
      std::min(1.0, lambda * transient_fraction * window / 3600.0);
  // A persistent onset at uniform time taints the remainder of the run (or,
  // under scrubbing, at most half a scrub interval on average before the
  // CRC sweep catches it and the weights are reloaded).
  double persist_span = run_seconds / 2.0;
  double persist_caught_by_scrub = 0.0;
  if (policy.kind == SdcPolicyKind::kScrub) {
    const double scrub_span =
        std::min(policy.scrub_interval_s / 2.0, run_seconds / 2.0);
    persist_caught_by_scrub = persist_span - scrub_span;
    persist_span = scrub_span;
  }
  // λ(1-p)/3600 onsets per second of run, each tainting `persist_span`
  // seconds, gives corrupted-work fraction λ(1-p)·span/3600 (span <= T/2).
  const double f_persist =
      std::min(1.0, lambda * (1.0 - transient_fraction) * persist_span /
                        3600.0);
  const double f_scrub_repaired =
      std::min(1.0, lambda * (1.0 - transient_fraction) *
                        persist_caught_by_scrub / 3600.0);

  const SdcDetectionProfile detection = DetectionProfile(policy);

  // Transient and persistent exposure are each clamped above, but their sum
  // is the fraction of one run and cannot exceed it either.
  const double live = std::min(1.0, f_transient + f_persist);
  out.corruption_fraction = std::min(1.0, live + f_scrub_repaired);
  out.detected_fraction =
      std::min(1.0, live * detection.coverage + f_scrub_repaired);
  out.escape_fraction = std::max(0.0, live * (1.0 - detection.coverage));
  // Detected work is thrown away and redone, so it bills twice: once as the
  // wasted corrupted pass, once as the clean redo — plus the always-on
  // machinery.
  out.time_overhead = detection.machinery_cost + out.detected_fraction;
  return out;
}

double DeliveredAccuracy(double accuracy, double escape_fraction,
                         double corrupt_factor) {
  CCPERF_CHECK(escape_fraction >= 0.0 && escape_fraction <= 1.0,
               "escape_fraction must be in [0, 1], got ", escape_fraction);
  CCPERF_CHECK(corrupt_factor >= 0.0 && corrupt_factor <= 1.0,
               "corrupt_factor must be in [0, 1], got ", corrupt_factor);
  return accuracy * (1.0 - escape_fraction * (1.0 - corrupt_factor));
}

}  // namespace ccperf::cloud
