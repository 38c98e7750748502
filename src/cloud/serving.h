// Online-serving simulation: the paper's motivating scenario (§1) is
// near-real-time photo filtering, where images *arrive* continuously and
// must be classified "almost immediately". The offline model (Eqs. 1-4)
// answers throughput questions; this discrete-event simulator answers the
// latency question: given an arrival rate, a fleet, and a batching policy,
// what latency percentiles do requests see and what does an hour cost?
//
// Model: Poisson arrivals; each GPU serves batches FIFO; the dispatcher
// releases a batch when `max_batch` requests are waiting or the oldest
// request has waited `max_wait_s`. Batch service time comes from the same
// calibrated device model as the offline simulator.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "cloud/checkpoint.h"
#include "cloud/faults.h"
#include "cloud/resource_config.h"
#include "cloud/sdc.h"
#include "cloud/simulator.h"

namespace ccperf {
class Rng;
}

namespace ccperf::cloud {

/// Batching/dispatch policy of the serving fleet.
struct ServingPolicy {
  std::int64_t max_batch = 64;  // dispatch when this many are queued
  double max_wait_s = 0.05;     // ... or when the oldest waited this long
  /// Per-request deadline (arrival -> completion). Requests that cannot
  /// start service before their deadline are dropped; requests completing
  /// late count as deadline misses. Infinity disables deadline accounting.
  double deadline_s = std::numeric_limits<double>::infinity();
};

/// Throws CheckError unless max_batch >= 1, max_wait_s >= 0 and
/// deadline_s > 0.
void ValidateServingPolicy(const ServingPolicy& policy);

/// Retry-with-exponential-backoff for requests whose batch died with the
/// instance: attempt k re-enters the queue after
/// min(base * multiplier^(k-1), max) seconds; after `max_retries` failed
/// re-attempts the request is dropped. `max_backoff_s` is the configurable
/// ceiling; BackoffFor stops multiplying once it is reached, so arbitrarily
/// large attempt counts can neither overflow the double to infinity nor
/// cost O(attempt) work.
struct RetryPolicy {
  int max_retries = 2;
  double base_backoff_s = 0.05;
  double backoff_multiplier = 2.0;
  double max_backoff_s = 2.0;

  /// Backoff before re-attempt `attempt` (1-based). Monotone, capped.
  [[nodiscard]] double BackoffFor(int attempt) const;
};

/// Throws CheckError on negative retries/backoffs, non-finite fields, or
/// multiplier < 1.
void ValidateRetryPolicy(const RetryPolicy& policy);

/// Redundant execution against correlated failures: every request is
/// admitted as `replicas` copies (a batch never takes two copies of one
/// request, so replicas ride different dispatches and usually different
/// instances), and a copy still waiting `hedge_after_s` after its arrival
/// spawns up to `max_hedges` extra hedge copies. First completion wins and
/// records the request's latency; later copies still consume GPU service
/// time, which is how duplicate work is billed into the Eq. 3-4 cost
/// picture (utilization up, goodput per dollar down). The defaults (one
/// replica, no hedging) reproduce the single-copy engine exactly.
struct RedundancyPolicy {
  int replicas = 1;
  double hedge_after_s = std::numeric_limits<double>::infinity();
  int max_hedges = 0;

  /// True when the policy can ever create a second copy.
  [[nodiscard]] bool Active() const {
    return replicas > 1 ||
           (max_hedges > 0 && hedge_after_s !=
                                  std::numeric_limits<double>::infinity());
  }
};

/// Throws CheckError unless replicas >= 1, hedge_after_s > 0, and
/// max_hedges >= 0.
void ValidateRedundancyPolicy(const RedundancyPolicy& policy);

/// What happens to the requests of a batch in flight on a failed instance.
enum class InflightPolicy {
  kRequeue,  // requests re-enter the queue (subject to RetryPolicy)
  kDrop,     // requests are lost
};

/// Result of a serving simulation.
struct ServingReport {
  std::int64_t requests = 0;
  double duration_s = 0.0;       // simulated horizon
  double mean_latency_s = 0.0;   // arrival -> batch completion
  double p50_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double max_queue = 0.0;        // largest backlog observed
  double utilization = 0.0;      // busy fraction of *available* GPU time
  double cost_per_hour_usd = 0.0;
  bool stable = true;            // false if the backlog kept growing

  // Failure-aware accounting (zero on fault-free runs without deadlines).
  std::int64_t completed = 0;         // requests that finished service
  std::int64_t dropped_deadline = 0;  // timed out before service started
  std::int64_t dropped_failed = 0;    // lost to failures / retry exhaustion
  std::int64_t retries = 0;           // re-enqueues after a failed batch
  std::int64_t deadline_misses = 0;   // served, but past their deadline
  double goodput_per_s = 0.0;         // in-deadline completions / duration
  double deadline_miss_rate = 0.0;    // 1 - in-deadline / requests
  /// goodput_per_s weighted by the accuracy of the serving variant — the
  /// paper's accuracy dimension folded into SLO compliance.
  double accuracy_weighted_goodput = 0.0;

  // Redundancy accounting (zero unless a RedundancyPolicy is active).
  std::int64_t hedges = 0;  // hedge copies spawned past hedge_after_s
  std::int64_t duplicate_completions = 0;  // copies served after their
                                           // request had already completed
  std::int64_t discarded_copies = 0;  // redundant copies removed unserved
  double duplicate_service_s = 0.0;   // GPU seconds spent on duplicates

  // Silent-corruption accounting (zero unless an SdcPolicy other than kOff
  // is active — cloud/sdc.h). Batches dispatched inside a
  // kSilentCorruption residency window compute wrong results; the policy
  // either detects them (the batch is re-served: extra GPU time, billed
  // through utilization into the Eq. 3-4 cost picture) or lets them escape
  // (delivered wrong: discounted out of delivered goodput).
  std::int64_t corrupted_batches = 0;  // dispatched inside a window
  std::int64_t sdc_detected = 0;       // caught and re-served
  std::int64_t sdc_escaped = 0;        // delivered as if correct
  std::int64_t sdc_escaped_requests = 0;  // completions from escaped batches
  /// accuracy_weighted_goodput after discounting escaped completions to
  /// kCorruptTop1Factor of their accuracy. Equal to
  /// accuracy_weighted_goodput when no corruption escapes.
  double delivered_accuracy_weighted_goodput = 0.0;
};

/// Discrete-event simulator over the calibrated device model.
class ServingSimulator {
 public:
  explicit ServingSimulator(const CloudSimulator& simulator);

  /// Simulate `duration_s` of Poisson traffic at `arrivals_per_s` against
  /// `config` running `perf`. Deterministic given `rng`.
  [[nodiscard]] ServingReport Simulate(const ResourceConfig& config,
                                       const VariantPerf& perf,
                                       double arrivals_per_s,
                                       double duration_s,
                                       const ServingPolicy& policy,
                                       Rng& rng) const;

  /// Replay an explicit arrival trace (ascending timestamps in seconds).
  /// `duration_s` is the horizon used for utilization accounting.
  [[nodiscard]] ServingReport SimulateTrace(const ResourceConfig& config,
                                            const VariantPerf& perf,
                                            std::vector<double> arrivals,
                                            double duration_s,
                                            const ServingPolicy& policy) const;

  /// Replay a trace against a fleet subjected to `faults`. Batches in
  /// flight on a failing instance are requeued (with `retry` backoff) or
  /// lost per `inflight` — except across a kPartition onset, where in-flight
  /// work is always lost (the isolated instance cannot hand it back);
  /// requests whose deadline expires before service are dropped.
  /// `variant_accuracy` feeds accuracy_weighted_goodput; `redundancy` adds
  /// request replication and hedging; `sdc` decides what happens to batches
  /// served inside kSilentCorruption windows (the default kOff leaves them
  /// unmodeled — bitwise identical to the pre-SDC engine). Deterministic
  /// given the trace and schedule.
  [[nodiscard]] ServingReport SimulateFaulted(
      const ResourceConfig& config, const VariantPerf& perf,
      std::vector<double> arrivals, double duration_s,
      const ServingPolicy& policy, const RetryPolicy& retry,
      const FaultSchedule& faults,
      InflightPolicy inflight = InflightPolicy::kRequeue,
      double variant_accuracy = 1.0,
      const RedundancyPolicy& redundancy = {},
      const SdcPolicy& sdc = {}) const;

  /// SimulateFaulted under a CheckpointPolicy: the dynamics and the report
  /// are identical (snapshots never perturb the simulation); `stats`
  /// receives the snapshot count, the charged overhead (snapshot time
  /// billed at the fleet's hourly price — the Eq. 3-4 recovery cost term)
  /// and the latest restorable snapshot bytes.
  [[nodiscard]] ServingReport SimulateFaultedCheckpointed(
      const ResourceConfig& config, const VariantPerf& perf,
      std::vector<double> arrivals, double duration_s,
      const ServingPolicy& policy, const RetryPolicy& retry,
      const FaultSchedule& faults, const CheckpointPolicy& checkpoint,
      CheckpointStats* stats = nullptr,
      InflightPolicy inflight = InflightPolicy::kRequeue,
      double variant_accuracy = 1.0,
      const RedundancyPolicy& redundancy = {},
      const SdcPolicy& sdc = {}) const;

  /// Max sustainable arrival rate (requests/s) of a configuration at full
  /// batching — the stability boundary of Simulate().
  [[nodiscard]] double Capacity(const ResourceConfig& config,
                                const VariantPerf& perf,
                                const ServingPolicy& policy) const;

  [[nodiscard]] const CloudSimulator& Simulator() const { return simulator_; }

 private:
  const CloudSimulator& simulator_;
};

/// The discrete-event core of SimulateFaulted as a steppable, checkpointable
/// object: construct with the run's inputs, Step() until Done(), Finish()
/// for the report. Checkpoint() captures the full mutable state through the
/// common snapshot format; Restore() on an engine built from the *same*
/// inputs resumes it so that the finished report is bitwise identical to an
/// uninterrupted run — the durability invariant the spot-preemption story
/// rests on. Restoring against different inputs (detected via a CRC
/// fingerprint of trace/config/policies/schedule) throws CheckError, as do
/// corrupted or truncated snapshot bytes.
class FaultedServingEngine {
 public:
  FaultedServingEngine(const ServingSimulator& serving,
                       const ResourceConfig& config, const VariantPerf& perf,
                       std::vector<double> arrivals, double duration_s,
                       const ServingPolicy& policy, const RetryPolicy& retry,
                       const FaultSchedule& faults,
                       InflightPolicy inflight = InflightPolicy::kRequeue,
                       double variant_accuracy = 1.0,
                       const RedundancyPolicy& redundancy = {},
                       const SdcPolicy& sdc = {});

  [[nodiscard]] bool Done() const;
  /// One scheduling decision: admit pending arrivals/retries or dispatch
  /// (and possibly fail) one batch. Throws CheckError when Done().
  void Step();
  /// Monotone watermark of simulated time covered so far — the checkpoint
  /// policies trigger on this.
  [[nodiscard]] double Watermark() const { return watermark_; }
  /// Final report; requires Done(). Takes the latency percentiles by
  /// selecting in place on the engine's own samples, so it runs once: a
  /// finished engine refuses Finish() and Checkpoint() (and Step(), being
  /// Done()).
  [[nodiscard]] ServingReport Finish();

  [[nodiscard]] std::string Checkpoint() const;
  void Restore(const std::string& snapshot);

 private:
  /// One queued *copy* of a request (a request has several copies under a
  /// RedundancyPolicy). `ready` is when it (re-)enters the queue; `arrival`
  /// is the original arrival that deadlines/latency use; `id` indexes the
  /// arrival trace and ties sibling copies together.
  struct Pending {
    double ready = 0.0;
    double arrival = 0.0;
    int attempts = 0;
    std::int64_t id = 0;
  };
  struct GpuState {
    double free_at = 0.0;
    double busy = 0.0;
  };

  /// Heap order of `requeued_` (std::push_heap with this yields a min-heap
  /// on ready time, ties broken by arrival then attempts).
  static bool Later(const Pending& a, const Pending& b);

  [[nodiscard]] double NextSourceReady() const;
  void AdmitUntil(double t);
  [[nodiscard]] std::uint32_t Fingerprint() const;

  // Immutable run context (rebuilt identically at restore time).
  const CloudSimulator* sim_;
  ResourceConfig config_;
  VariantPerf perf_;
  std::vector<double> arrivals_;
  double duration_s_ = 0.0;
  ServingPolicy policy_;
  RetryPolicy retry_;
  FaultSchedule faults_;
  InflightPolicy inflight_ = InflightPolicy::kRequeue;
  double variant_accuracy_ = 1.0;
  RedundancyPolicy redundancy_;
  SdcPolicy sdc_;
  // Derived once: the policy's always-on fractional service-time cost and
  // its detection coverage c. Detection is deterministic low-discrepancy
  // thinning: corrupted batch n is detected iff floor(n*c) > floor((n-1)*c),
  // so exactly a long-run fraction c is caught with no randomness.
  SdcDetectionProfile sdc_detection_;
  std::vector<const InstanceType*> gpu_types_;
  std::vector<int> gpu_instance_;
  std::vector<InstanceTimeline> timelines_;
  std::size_t backlog_limit_ = 0;
  std::uint32_t fingerprint_ = 0;

  // Mutable simulation state — everything Checkpoint() captures.
  std::vector<GpuState> gpus_;
  std::vector<Pending> requeued_;  // min-heap (std::push_heap order)
  std::deque<Pending> waiting_;    // admitted, sorted by ready
  std::size_t next_arrival_ = 0;
  // Per-request redundancy bookkeeping, indexed by arrival id: live copy
  // counts, first-completion flags, hedges spawned so far.
  std::vector<std::int32_t> copies_live_;
  std::vector<std::uint8_t> done_;
  std::vector<std::int32_t> hedges_used_;
  std::vector<double> latencies_;
  std::int64_t in_deadline_ = 0;
  // Running count of corrupted batches — drives the deterministic
  // every-k-th-escapes rule; captured by Checkpoint().
  std::int64_t sdc_corrupt_seen_ = 0;
  double watermark_ = 0.0;
  bool halted_ = false;  // fleet permanently gone or backlog exploded
  ServingReport report_;
  bool finished_ = false;  // Finish() ran; latencies_ is reordered

  // Scratch of Step(), reused so a dispatch allocates nothing; not state.
  std::vector<Pending> batch_;
};

/// Non-homogeneous Poisson arrivals with a sinusoidal diurnal rate:
/// rate(t) = mean + amplitude * sin(2*pi*t/period - pi/2), so the trace
/// starts at the trough. Generated by thinning. Requires
/// 0 <= amplitude <= mean.
std::vector<double> GenerateDiurnalArrivals(double mean_rate_per_s,
                                            double amplitude_per_s,
                                            double period_s,
                                            double duration_s, Rng& rng);

}  // namespace ccperf::cloud
