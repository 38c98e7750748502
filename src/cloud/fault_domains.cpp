#include "cloud/fault_domains.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace ccperf::cloud {

namespace {

bool IsCorrelatedKind(FaultKind kind) {
  return kind == FaultKind::kDomainOutage ||
         kind == FaultKind::kReclaimWave || kind == FaultKind::kPartition;
}

void ValidateCorrelatedEvent(const CorrelatedEvent& event, int domain_count) {
  CCPERF_CHECK(IsCorrelatedKind(event.kind), FaultKindName(event.kind),
               " is not a correlated (domain-level) fault kind");
  CCPERF_CHECK(event.domain >= 0 && event.domain < domain_count,
               "event domain ", event.domain,
               " outside topology with ", domain_count, " domains");
  CCPERF_CHECK(event.start_s >= 0.0 && std::isfinite(event.start_s),
               "event start must be finite and >= 0, got ", event.start_s);
  if (FaultKindIsPermanent(event.kind)) {
    CCPERF_CHECK(event.duration_s >= 0.0, FaultKindName(event.kind),
                 " duration must be >= 0 (it is ignored)");
    CCPERF_CHECK(event.fraction > 0.0 && event.fraction <= 1.0,
                 "reclaim fraction must be in (0, 1], got ", event.fraction);
  } else {
    CCPERF_CHECK(event.duration_s > 0.0 && std::isfinite(event.duration_s),
                 FaultKindName(event.kind),
                 " duration must be positive, got ", event.duration_s);
  }
}

}  // namespace

const char* DomainLevelName(DomainLevel level) {
  switch (level) {
    case DomainLevel::kRegion:
      return "region";
    case DomainLevel::kZone:
      return "zone";
    case DomainLevel::kPool:
      return "pool";
  }
  return "?";
}

void FaultDomainTopology::Validate() const {
  CCPERF_CHECK(!domains.empty(), "topology has no domains");
  for (std::size_t i = 0; i < domains.size(); ++i) {
    const Domain& d = domains[i];
    CCPERF_CHECK(!d.name.empty(), "domain ", i, " has an empty name");
    if (d.level == DomainLevel::kRegion) {
      CCPERF_CHECK(d.parent == -1, "region '", d.name,
                   "' must be a root (parent -1), got parent ", d.parent);
    } else {
      CCPERF_CHECK(d.parent >= 0 && static_cast<std::size_t>(d.parent) < i,
                   DomainLevelName(d.level), " '", d.name,
                   "' needs a parent that precedes it, got ", d.parent);
      const DomainLevel expected = d.level == DomainLevel::kZone
                                       ? DomainLevel::kRegion
                                       : DomainLevel::kZone;
      const Domain& parent = domains[static_cast<std::size_t>(d.parent)];
      CCPERF_CHECK(parent.level == expected, DomainLevelName(d.level), " '",
                   d.name, "' parent '", parent.name, "' must be a ",
                   DomainLevelName(expected));
    }
  }
  for (std::size_t i = 0; i < instance_domain.size(); ++i) {
    const int d = instance_domain[i];
    CCPERF_CHECK(d >= 0 && static_cast<std::size_t>(d) < domains.size(),
                 "instance ", i, " placed in nonexistent domain ", d);
    const Domain& pool = domains[static_cast<std::size_t>(d)];
    CCPERF_CHECK(pool.level == DomainLevel::kPool, "instance ", i,
                 " must be placed in a pool, got ",
                 DomainLevelName(pool.level), " '", pool.name, "'");
  }
}

std::vector<int> FaultDomainTopology::PoolIndices() const {
  std::vector<int> pools;
  for (std::size_t i = 0; i < domains.size(); ++i) {
    if (domains[i].level == DomainLevel::kPool) {
      pools.push_back(static_cast<int>(i));
    }
  }
  return pools;
}

bool FaultDomainTopology::Contains(int instance, int domain) const {
  CCPERF_CHECK(domain >= 0 &&
                   static_cast<std::size_t>(domain) < domains.size(),
               "domain index ", domain, " out of range");
  if (instance < 0 ||
      static_cast<std::size_t>(instance) >= instance_domain.size()) {
    return false;
  }
  for (int d = instance_domain[static_cast<std::size_t>(instance)]; d != -1;
       d = domains[static_cast<std::size_t>(d)].parent) {
    if (d == domain) return true;
  }
  return false;
}

std::vector<int> FaultDomainTopology::InstancesIn(int domain) const {
  std::vector<int> instances;
  for (std::size_t i = 0; i < instance_domain.size(); ++i) {
    if (Contains(static_cast<int>(i), domain)) {
      instances.push_back(static_cast<int>(i));
    }
  }
  return instances;
}

FaultDomainTopology FaultDomainTopology::Uniform(int regions,
                                                 int zones_per_region,
                                                 int pools_per_zone) {
  CCPERF_CHECK(regions >= 1 && zones_per_region >= 1 && pools_per_zone >= 1,
               "topology needs at least one region, zone, and pool; got ",
               regions, "x", zones_per_region, "x", pools_per_zone);
  FaultDomainTopology topo;
  for (int r = 0; r < regions; ++r) {
    const int region_index = static_cast<int>(topo.domains.size());
    topo.domains.push_back(
        {"r" + std::to_string(r), -1, DomainLevel::kRegion});
    for (int z = 0; z < zones_per_region; ++z) {
      const int zone_index = static_cast<int>(topo.domains.size());
      topo.domains.push_back({"r" + std::to_string(r) + "z" +
                                  std::to_string(z),
                              region_index, DomainLevel::kZone});
      for (int p = 0; p < pools_per_zone; ++p) {
        topo.domains.push_back({"r" + std::to_string(r) + "z" +
                                    std::to_string(z) + "p" +
                                    std::to_string(p),
                                zone_index, DomainLevel::kPool});
      }
    }
  }
  return topo;
}

void FaultDomainTopology::PlaceInstances(int count, PlacementSpread spread) {
  CCPERF_CHECK(count >= 0, "instance count must be >= 0, got ", count);
  const std::vector<int> pools = PoolIndices();
  CCPERF_CHECK(!pools.empty(), "cannot place instances: topology has no "
                               "pools");
  instance_domain.assign(static_cast<std::size_t>(count), pools[0]);
  if (spread == PlacementSpread::kSpread) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(count); ++i) {
      instance_domain[i] = pools[i % pools.size()];
    }
  }
}

void CorrelatedSchedule::Validate(const FaultDomainTopology& topology) const {
  topology.Validate();
  const int domain_count = static_cast<int>(topology.domains.size());
  double previous = 0.0;
  for (const CorrelatedEvent& event : events) {
    ValidateCorrelatedEvent(event, domain_count);
    CCPERF_CHECK(event.start_s >= previous,
                 "correlated trace must be start-sorted: ", event.start_s,
                 " after ", previous);
    previous = event.start_s;
  }
}

CorrelatedSchedule GenerateCorrelatedSchedule(
    const CorrelatedFaultModel& model, const FaultDomainTopology& topology,
    double duration_s, Rng& rng) {
  topology.Validate();
  CCPERF_CHECK(duration_s > 0.0, "duration must be positive");
  CCPERF_CHECK(model.outage_rate >= 0.0 && model.reclaim_wave_rate >= 0.0 &&
                   model.partition_rate >= 0.0,
               "correlated fault rates must be >= 0");
  CCPERF_CHECK(model.outage_s > 0.0, "outage duration must be positive");
  CCPERF_CHECK(model.partition_s > 0.0,
               "partition duration must be positive");
  CCPERF_CHECK(model.reclaim_fraction > 0.0 && model.reclaim_fraction <= 1.0,
               "reclaim fraction must be in (0, 1], got ",
               model.reclaim_fraction);

  CorrelatedSchedule schedule;
  const auto exponential = [&rng](double rate_per_hour) {
    return -std::log(1.0 - rng.NextDouble()) / (rate_per_hour / 3600.0);
  };
  // Domains in index order, streams in a fixed kind order per domain — the
  // draw sequence (and therefore the schedule) is a pure function of the
  // rng seed.
  for (std::size_t d = 0; d < topology.domains.size(); ++d) {
    const int domain = static_cast<int>(d);
    const DomainLevel level = topology.domains[d].level;
    if (level == DomainLevel::kZone) {
      if (model.outage_rate > 0.0) {
        for (double t = exponential(model.outage_rate); t < duration_s;
             t += model.outage_s + exponential(model.outage_rate)) {
          schedule.events.push_back({FaultKind::kDomainOutage, domain, t,
                                     model.outage_s, 1.0, 0});
        }
      }
      if (model.partition_rate > 0.0) {
        for (double t = exponential(model.partition_rate); t < duration_s;
             t += model.partition_s + exponential(model.partition_rate)) {
          schedule.events.push_back({FaultKind::kPartition, domain, t,
                                     model.partition_s, 1.0, 0});
        }
      }
    } else if (level == DomainLevel::kPool) {
      if (model.reclaim_wave_rate > 0.0) {
        // One wave per pool at most: reclaimed capacity never comes back,
        // so later waves on the same (already gutted) pool add nothing but
        // noise to the trace.
        const double t = exponential(model.reclaim_wave_rate);
        if (t < duration_s) {
          schedule.events.push_back({FaultKind::kReclaimWave, domain, t, 0.0,
                                     model.reclaim_fraction, rng.NextU64()});
        }
      }
    }
  }
  std::stable_sort(schedule.events.begin(), schedule.events.end(),
                   [](const CorrelatedEvent& a, const CorrelatedEvent& b) {
                     if (a.start_s != b.start_s) return a.start_s < b.start_s;
                     return a.domain < b.domain;
                   });
  return schedule;
}

FaultSchedule LowerCorrelatedSchedule(const CorrelatedSchedule& schedule,
                                      const FaultDomainTopology& topology) {
  schedule.Validate(topology);
  FaultSchedule out;
  for (const CorrelatedEvent& event : schedule.events) {
    const std::vector<int> instances = topology.InstancesIn(event.domain);
    if (instances.empty()) continue;
    if (event.kind == FaultKind::kReclaimWave) {
      const int n = static_cast<int>(instances.size());
      const int victims = static_cast<int>(
          std::ceil(event.fraction * static_cast<double>(n)));
      // Victim choice is keyed on the event's own seed, not the generator
      // rng, so lowering the same event twice picks the same victims.
      Rng victim_rng(event.seed);
      const std::vector<std::uint32_t> perm = victim_rng.Permutation(
          static_cast<std::uint32_t>(n));
      std::vector<int> chosen;
      chosen.reserve(static_cast<std::size_t>(victims));
      for (int v = 0; v < victims; ++v) {
        chosen.push_back(instances[perm[static_cast<std::size_t>(v)]]);
      }
      std::sort(chosen.begin(), chosen.end());
      for (const int instance : chosen) {
        out.events.push_back(
            {FaultKind::kReclaimWave, instance, event.start_s, 0.0, 1.0});
      }
    } else {
      for (const int instance : instances) {
        out.events.push_back({event.kind, instance, event.start_s,
                              event.duration_s, 1.0});
      }
    }
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.start_s != b.start_s) return a.start_s < b.start_s;
                     return a.instance < b.instance;
                   });
  return out;
}

}  // namespace ccperf::cloud
