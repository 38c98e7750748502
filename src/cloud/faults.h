// Fault injection for the serving stack: deterministic, seedable traces of
// the cloud behaviours the paper's motivating scenario (§1, near-real-time
// photo filtering) must survive — spot preemptions, instance crash/restart
// cycles, and transient slowdown windows. A FaultSchedule is either replayed
// from an explicit event list (CSV) or generated from a statistical
// FaultModel; either way the same schedule always produces the same
// simulation, so failure experiments are reproducible from a single seed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ccperf {
class Rng;
}

namespace ccperf::cloud {

/// What happens to an instance. The first three kinds are independent
/// per-instance faults; the last three are the instance-level projection of
/// correlated domain events (see cloud/fault_domains.h), kept distinct so a
/// trace records *why* an instance went down and reports can attribute loss
/// to the incident class.
enum class FaultKind {
  kPreemption,    // spot reclaim: the instance leaves and never returns
  kCrash,         // the instance dies and restarts after `duration_s`
  kSlowdown,      // transient contention: `slowdown_factor`x slower service
  kDomainOutage,  // whole-domain outage: down for `duration_s`, like a crash
  kReclaimWave,   // correlated spot reclaim: permanent, like a preemption
  kPartition,     // domain unreachable for `duration_s`: down AND in-flight
                  // work on the instance is lost (no requeue) because the
                  // partition severs it from the request plane
  kSilentCorruption,  // silent data corruption: the instance stays UP and
                      // keeps serving, but results produced during the
                      // `duration_s` residency window are wrong unless a
                      // detection policy (cloud/sdc.h) catches them
};

/// "preemption" / "crash" / "slowdown" / "domain-outage" / "reclaim-wave" /
/// "partition" / "silent-corruption".
const char* FaultKindName(FaultKind kind);

/// Permanent kinds take the instance away for good; `duration_s` is ignored.
[[nodiscard]] bool FaultKindIsPermanent(FaultKind kind);

/// One fault hitting one instance of the fleet. `instance` indexes the
/// fleet's expanded instance list (ResourceConfig order); events targeting
/// indices beyond the current fleet size are inert, so one schedule can be
/// replayed against fleets of different sizes.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  int instance = 0;
  double start_s = 0.0;
  double duration_s = 0.0;       // ignored for permanent kinds
  double slowdown_factor = 1.0;  // > 1, only meaningful for kSlowdown
};

/// Time-sorted fault trace.
struct FaultSchedule {
  std::vector<FaultEvent> events;

  /// Throws CheckError unless events are start-sorted with non-negative
  /// start/instance, positive durations for crash/slowdown, and slowdown
  /// factors > 1.
  void Validate() const;

  /// Events overlapping [t0, t1), clipped to the window and shifted to
  /// window-local time — the per-epoch view of a global schedule.
  [[nodiscard]] FaultSchedule Slice(double t0, double t1) const;

  [[nodiscard]] bool Empty() const { return events.empty(); }
};

/// Statistical fault generator; all rates are per instance-hour.
struct FaultModel {
  double preemption_rate = 0.0;
  double crash_rate = 0.0;
  double restart_s = 30.0;  // crash -> back up
  double slowdown_rate = 0.0;
  double slowdown_s = 60.0;
  double slowdown_factor = 2.0;
  // Silent corruption: onset rate per instance-hour (catalog column
  // sdc_rate_per_hour is the usual source) and the residency window — how
  // long a transient upset taints results before the state is naturally
  // rewritten (weights reloaded, job restarted).
  double sdc_rate = 0.0;
  double sdc_window_s = 120.0;
};

/// Draw a schedule for `instances` instances over `duration_s` seconds.
/// Per-instance independent Poisson processes; deterministic given `rng`.
FaultSchedule GenerateFaultSchedule(const FaultModel& model, int instances,
                                    double duration_s, Rng& rng);

/// Merge two valid schedules into one start-sorted trace (stable: on ties
/// `a`'s events precede `b`'s). Composes an independent per-instance trace
/// with a lowered correlated trace (cloud/fault_domains.h).
FaultSchedule MergeFaultSchedules(const FaultSchedule& a,
                                  const FaultSchedule& b);

/// CSV with header "kind,instance,start_s,duration_s,slowdown_factor".
/// Malformed rows, unknown kinds, negative timestamps, or out-of-order
/// start times throw CheckError naming the offending line — corrupted
/// traces must never silently mis-simulate. A stream that fails mid-read
/// (truncated file) throws as well.
FaultSchedule ParseFaultScheduleCsv(std::istream& in);
FaultSchedule ParseFaultScheduleCsv(const std::string& text);

/// Inverse of ParseFaultScheduleCsv (round-trips exactly enough to replay).
std::string FaultScheduleCsv(const FaultSchedule& schedule);

/// Availability/slowdown timeline of one instance under a schedule:
/// merged down intervals (crashes + preemption) and slowdown windows.
class InstanceTimeline {
 public:
  /// `horizon_s` bounds preemption intervals; schedule must be valid.
  InstanceTimeline(const FaultSchedule& schedule, int instance,
                   double horizon_s);

  /// True iff the instance is up at time `t`.
  [[nodiscard]] bool UpAt(double t) const;

  /// Earliest t' >= t at which the instance is up; +inf if it never
  /// returns (preempted).
  [[nodiscard]] double NextUpAt(double t) const;

  /// Start of the first down interval beginning after `t`; +inf if none.
  [[nodiscard]] double NextDownAfter(double t) const;

  /// Service-time multiplier at `t` (>= 1; max over overlapping windows).
  [[nodiscard]] double SlowdownAt(double t) const;

  /// True iff `t` falls inside a kPartition window of this instance. A
  /// partition is also a down interval, but the serving engine additionally
  /// treats work in flight at partition onset as lost (no requeue) — the
  /// isolated instance cannot hand its batch back to the request plane.
  [[nodiscard]] bool PartitionedAt(double t) const;

  /// True iff `t` falls inside a kSilentCorruption residency window. The
  /// instance is NOT down — it keeps serving, which is the whole hazard:
  /// results computed here are wrong unless a detection policy intervenes.
  [[nodiscard]] bool CorruptedAt(double t) const;

  /// Total seconds the instance is down within [0, horizon].
  [[nodiscard]] double DownSeconds() const;

 private:
  struct Interval {
    double start = 0.0;
    double end = 0.0;
  };
  struct SlowWindow {
    double start = 0.0;
    double end = 0.0;
    double factor = 1.0;
  };
  std::vector<Interval> down_;       // merged, sorted, disjoint
  std::vector<SlowWindow> slow_;     // sorted by start
  std::vector<Interval> partition_;  // merged kPartition windows
  std::vector<Interval> corrupt_;    // merged kSilentCorruption windows
  double horizon_s_ = 0.0;
};

}  // namespace ccperf::cloud
