// Correlated-failure fault domains. Real cloud incidents are not independent
// per-instance coin flips: spot reclaim waves sweep one capacity pool, an AZ
// outage takes every instance in the zone, a network partition isolates a
// domain. This module models the blast radius explicitly: a FaultDomain tree
// (region -> zone -> pool) with every fleet instance mapped to a leaf pool,
// a CorrelatedFaultModel that draws Poisson-arriving *domain-level* events,
// and a lowering pass that projects those events onto the instances placed
// inside the struck domain. The lowered trace is an ordinary FaultSchedule,
// so it composes with the independent per-instance FaultModel via
// MergeFaultSchedules and replays through the unmodified serving engine —
// bitwise-deterministically per seed.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cloud/faults.h"

namespace ccperf {
class Rng;
}

namespace ccperf::cloud {

/// Depth of a node in the fault-domain tree.
enum class DomainLevel {
  kRegion,
  kZone,
  kPool,
};

/// "region" / "zone" / "pool".
const char* DomainLevelName(DomainLevel level);

/// How instances are laid out across pools — the placement knob TAR/CAR
/// trades: packing is cheap (no cross-pool premium) but one reclaim wave or
/// outage can take the whole fleet; spreading caps the correlated loss to
/// one pool's share at a placement premium.
enum class PlacementSpread {
  kPack,    // fill the first pool before touching the next
  kSpread,  // round-robin instances across all pools
};

/// A region -> zone -> pool tree plus the instance -> pool map. Domains are
/// stored parent-before-child, so walking `parent` links always terminates.
struct FaultDomainTopology {
  struct Domain {
    std::string name;
    int parent = -1;  // index into `domains`; -1 for a region (root)
    DomainLevel level = DomainLevel::kRegion;
  };

  std::vector<Domain> domains;
  /// instance index (ResourceConfig expansion order) -> pool domain index.
  std::vector<int> instance_domain;

  /// Throws CheckError unless every domain's parent precedes it and is one
  /// level up (regions have no parent), and every placed instance maps to a
  /// kPool domain.
  void Validate() const;

  /// Indices of all kPool domains, ascending.
  [[nodiscard]] std::vector<int> PoolIndices() const;

  /// True iff `instance` is placed and `domain` is its pool or an ancestor
  /// of its pool.
  [[nodiscard]] bool Contains(int instance, int domain) const;

  /// Instances placed inside `domain` (itself or any descendant), ascending.
  [[nodiscard]] std::vector<int> InstancesIn(int domain) const;

  /// Balanced tree: `regions` regions x `zones_per_region` zones x
  /// `pools_per_zone` pools, named "r0" / "r0z1" / "r0z1p2".
  static FaultDomainTopology Uniform(int regions, int zones_per_region,
                                     int pools_per_zone);

  /// (Re)place `count` instances across the pools per `spread`. kPack fills
  /// pools in index order; kSpread deals instances round-robin.
  void PlaceInstances(int count, PlacementSpread spread);
};

/// Statistical generator of correlated domain events. Outages and
/// partitions arrive per *zone*-hour; reclaim waves per *pool*-hour (spot
/// capacity is reclaimed pool by pool). All processes are independent
/// Poisson streams, drawn in deterministic domain order.
struct CorrelatedFaultModel {
  double outage_rate = 0.0;        // zone outages per zone-hour
  double outage_s = 600.0;         // outage length
  double reclaim_wave_rate = 0.0;  // waves per pool-hour
  double reclaim_fraction = 0.5;   // fraction of the pool preempted per wave
  double partition_rate = 0.0;     // partitions per zone-hour
  double partition_s = 120.0;      // partition length

  [[nodiscard]] bool Empty() const {
    return outage_rate <= 0.0 && reclaim_wave_rate <= 0.0 &&
           partition_rate <= 0.0;
  }
};

/// One domain-level incident. `seed` feeds victim selection when the event
/// is lowered (reclaim waves preempt a random `fraction` of the pool), so
/// the victims are a property of the event, not of the generator's draws.
struct CorrelatedEvent {
  FaultKind kind = FaultKind::kDomainOutage;  // one of the correlated kinds
  int domain = 0;
  double start_s = 0.0;
  double duration_s = 0.0;  // ignored for kReclaimWave (permanent)
  double fraction = 1.0;    // victim fraction, only meaningful for waves
  std::uint64_t seed = 0;   // victim-selection seed (waves)
};

/// Time-sorted trace of domain-level incidents.
struct CorrelatedSchedule {
  std::vector<CorrelatedEvent> events;

  /// Throws CheckError unless events are start-sorted, use correlated kinds
  /// only, target domains inside `topology`, and have fractions in (0, 1].
  void Validate(const FaultDomainTopology& topology) const;

  [[nodiscard]] bool Empty() const { return events.empty(); }
};

/// Draw a correlated schedule over `duration_s` seconds. Deterministic
/// given `rng`: domains are visited in index order, streams in a fixed
/// kind order, so one seed always yields the same incident trace.
CorrelatedSchedule GenerateCorrelatedSchedule(
    const CorrelatedFaultModel& model, const FaultDomainTopology& topology,
    double duration_s, Rng& rng);

/// Project domain events onto the instances placed in the struck domains:
/// kDomainOutage / kPartition hit every instance inside; kReclaimWave
/// preempts ceil(fraction * pool size) victims chosen by Rng(event.seed).
/// The result is start-sorted and composes with a per-instance trace via
/// MergeFaultSchedules.
FaultSchedule LowerCorrelatedSchedule(const CorrelatedSchedule& schedule,
                                      const FaultDomainTopology& topology);

}  // namespace ccperf::cloud
