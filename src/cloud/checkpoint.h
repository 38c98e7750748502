// Checkpoint policies and spot economics: when to snapshot a run, and what
// snapshots + lost recompute do to the paper's cost model (Eqs. 1-4).
//
// The paper prices configurations as if every instance runs to completion;
// the cheapest real configurations are preemptible spot instances. Scavenger
// (Tyagi & Sharma, 2023) shows the checkpoint interval is itself a
// cost/performance knob on transient resources, and PROFET (Lee et al.,
// 2022) motivates modeling the snapshot-vs-recompute overhead explicitly.
// This module supplies the knob (CheckpointPolicy), the classic optimum
// (Young's interval), and the Eq. 1-4 extension that charges snapshot time
// and expected recompute against spot prices: one pricing stage
// (ExpectCheckpointedSpotRun) behind EstimateSpotRun, the adaptive trigger
// of CheckpointInstants and core::ArchitectureEvaluator.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cloud/faults.h"
#include "cloud/simulator.h"
#include "common/annotations.h"
#include "common/threading.h"

namespace ccperf::cloud {

/// When a run takes a snapshot.
enum class CheckpointTrigger {
  kPeriodic,             // every interval_s of simulated time
  kOnPreemptionWarning,  // warning_lead_s before each scheduled fault
  kAdaptive,             // periodic at Young's optimal interval for the
                         // observed fault density (falls back to interval_s
                         // on a fault-free schedule)
};

/// "periodic" / "on-warning" / "adaptive".
const char* CheckpointTriggerName(CheckpointTrigger trigger);

/// Snapshot cadence + cost. `snapshot_cost_s` is the simulated wall time a
/// snapshot steals from the run; it is charged to the cost model, never to
/// the simulated dynamics (resume must stay bitwise-identical).
/// `mirror_copies` > 1 replicates every snapshot into that many fault
/// domains (SnapshotVault::PutMirrored), so a partitioned domain's state
/// restores from a reachable mirror; each extra copy bills `mirror_cost_s`
/// more simulated seconds per snapshot.
struct CheckpointPolicy {
  CheckpointTrigger trigger = CheckpointTrigger::kPeriodic;
  double interval_s = 300.0;      // periodic cadence / adaptive fallback
  double warning_lead_s = 120.0;  // EC2 spot issues a 2-minute warning
  double snapshot_cost_s = 1.0;   // simulated seconds per snapshot
  int mirror_copies = 1;          // fault domains each snapshot lands in
  double mirror_cost_s = 0.0;     // extra seconds per additional copy
};

/// Throws CheckError unless interval > 0, lead >= 0, costs >= 0 and
/// mirror_copies >= 1.
void ValidateCheckpointPolicy(const CheckpointPolicy& policy);

/// Young's optimal periodic checkpoint interval for snapshot cost `c` and
/// mean time between failures `mtbf`: sqrt(2 * c * mtbf). Requires both
/// positive.
double YoungInterval(double snapshot_cost_s, double mtbf_s);

/// The snapshot instants a policy produces for a run of `duration_s`
/// against `faults` on an `instances`-wide fleet: sorted, deduplicated,
/// strictly inside (0, duration_s).
std::vector<double> CheckpointInstants(const CheckpointPolicy& policy,
                                       const FaultSchedule& faults,
                                       double duration_s, int instances);

/// Accounting of one checkpointed run. `latest` is the bytes of the most
/// recent snapshot (restorable via FaultedServingEngine::Restore);
/// `history` records every (watermark, snapshot) pair when `keep_history`
/// is set before the run.
struct CheckpointStats {
  int snapshots = 0;
  double snapshot_overhead_s = 0.0;  // snapshots * snapshot_cost_s
  double overhead_cost_usd = 0.0;    // overhead billed at the fleet price
  double last_snapshot_s = 0.0;      // watermark of the latest snapshot
  std::string latest;
  bool keep_history = false;
  std::vector<std::pair<double, std::string>> history;
};

/// Thread-safe store of the newest snapshot per (named run, fault domain):
/// the mirrored restore drill (cloud/chaos.h) publishes each checkpoint
/// into several domains (cloud/fault_domains.h indices) and restores from
/// the newest copy whose domain is not partitioned away. Each domain keeps
/// only its highest watermark, so a stale republish is ignored.
class SnapshotVault {
 public:
  SnapshotVault() = default;
  SnapshotVault(const SnapshotVault&) = delete;
  SnapshotVault& operator=(const SnapshotVault&) = delete;

  /// Publish one copy of `snapshot` for `name` at `watermark` (simulated
  /// seconds) into each domain of `domains`. A domain that already holds a
  /// strictly higher watermark keeps its copy.
  void PutMirrored(const std::string& name, double watermark,
                   const std::string& snapshot,
                   const std::vector<int>& domains) CCPERF_EXCLUDES(mutex_);

  /// Bytes and watermark of the newest copy of `name` outside every domain
  /// of `unreachable` (sorted or not). Both throw CheckError when no
  /// reachable copy exists — a partition that swallows every mirror is a
  /// real data loss and must surface loudly.
  [[nodiscard]] std::string GetReachable(
      const std::string& name, const std::vector<int>& unreachable) const
      CCPERF_EXCLUDES(mutex_);
  [[nodiscard]] double ReachableWatermark(
      const std::string& name, const std::vector<int>& unreachable) const
      CCPERF_EXCLUDES(mutex_);

  /// One copy the integrity scrub flagged: `name`'s mirror in `domain`
  /// failed the snapshot-format CRC walk (SnapshotIntact).
  struct CorruptCopy {
    std::string name;
    int domain = -1;
  };
  /// Result of a vault scrub.
  struct ScrubReport {
    std::size_t copies_checked = 0;
    std::vector<CorruptCopy> corrupted;  // deterministic (name, domain) order
    [[nodiscard]] bool ok() const { return corrupted.empty(); }
  };

  /// Integrity scrub over every stored copy (all names, all mirrored
  /// domains): walks each snapshot's section CRCs via SnapshotIntact and
  /// reports the copies that no longer verify — the storage-side
  /// counterpart of nn::Network::VerifyIntegrity. Read-only; corrupted
  /// copies are reported, not evicted, so the caller decides whether to
  /// fail over to a reachable mirror or surface data loss.
  [[nodiscard]] ScrubReport VerifyAllSections() const
      CCPERF_EXCLUDES(mutex_);

 private:
  struct Entry {
    double watermark = 0.0;
    std::string bytes;
  };

  /// Newest reachable copy of `name`; throws CheckError when there is none.
  /// Ties on watermark pick the lowest domain index — deterministic
  /// regardless of publish order.
  [[nodiscard]] const Entry& BestReachableLocked(
      const std::string& name, const std::vector<int>& unreachable) const
      CCPERF_REQUIRES(mutex_);

  mutable Mutex mutex_;
  // name -> (domain -> newest entry in that domain). std::map keeps
  // iteration deterministic (and the lint bans hash containers in src/).
  std::map<std::string, std::map<int, Entry>> entries_
      CCPERF_GUARDED_BY(mutex_);
};

/// First-order (Young/Daly) expectation of a checkpointed run of fault-free
/// time T on an `instances`-wide fleet whose instances are each preempted
/// at `preemption_rate`. The run is T + snapshot_overhead + lost +
/// reprovision, summed in that order.
struct CheckpointedSpotTerms {
  Seconds interval;                   // the checkpoint interval in effect
  Seconds snapshot_overhead;          // one snapshot per whole interval of T
  double expected_preemptions = 0.0;  // fleet-wide, over T + overhead
  Seconds lost;         // half an interval per preemption (none on warning)
  Seconds reprovision;  // `restart` per preemption
};

/// The one checkpointed-spot pricing stage. The interval is the policy's,
/// or on the adaptive trigger Young's interval for the per-instance MTBF
/// (given a positive rate and snapshot cost); it is then held between one
/// snapshot cost and T (each at least 1 ms), and T wins when the run is
/// shorter than a snapshot. Pure arithmetic: the caller validates the
/// policy, rate and restart.
CheckpointedSpotTerms ExpectCheckpointedSpotRun(const CheckpointPolicy& policy,
                                                Seconds base,
                                                RatePerHour preemption_rate,
                                                int instances,
                                                Seconds restart);

/// Eq. 1-4 extended to preemptible capacity: expected completion time and
/// cost of an offline run of `images` on `config` priced at spot rates,
/// through ExpectCheckpointedSpotRun.
struct SpotRunEstimate {
  Seconds interval_s;                 // the checkpoint interval in effect
  Seconds base_seconds;               // fault-free T (Eq. 2)
  Seconds snapshot_overhead_s;
  Seconds expected_recompute_s;       // lost windows + reprovisioning
  double expected_preemptions = 0.0;  // across the whole fleet
  Seconds expected_seconds;           // T + overhead + recompute
  Usd on_demand_cost_usd;             // Eq. 1 at on-demand price, no faults
  Usd expected_spot_cost_usd;
};

/// `preemption_rate` is per instance; every type in `config` must
/// have a spot market (spot_price_per_hour > 0).
SpotRunEstimate EstimateSpotRun(const CloudSimulator& sim,
                                const ResourceConfig& config,
                                const VariantPerf& perf, std::int64_t images,
                                const CheckpointPolicy& policy,
                                RatePerHour preemption_rate,
                                Seconds restart = Seconds(60.0));

}  // namespace ccperf::cloud
