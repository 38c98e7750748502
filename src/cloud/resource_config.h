// ResourceConfig: a multiset of cloud instances — the paper's R — plus
// enumeration of the configuration space explored in Figures 9 and 10.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cloud/instance_catalog.h"

namespace ccperf::cloud {

/// Multiset of instance types, e.g. {p2.xlarge x2, p2.8xlarge x1}.
struct ResourceConfig {
  /// (type name, count) with count >= 1; order follows construction.
  std::vector<std::pair<std::string, int>> instances;

  /// Number of resource instances — the paper's |R|.
  [[nodiscard]] int TotalInstances() const;

  /// "2xp2.xlarge+1xp2.8xlarge"; "(empty)" for no instances.
  [[nodiscard]] std::string ToString() const;

  /// Append one instance of `type` (merging with an existing entry).
  void Add(const std::string& type, int count = 1);

  [[nodiscard]] bool Empty() const { return instances.empty(); }
};

/// Sum of hourly prices over all instances (the paper's sum of c_i).
UsdPerHour PricePerHour(const ResourceConfig& config,
                        const InstanceCatalog& catalog);

/// Every non-empty combination of 0..max_per_type instances of each type —
/// (max_per_type+1)^|types| - 1 configurations.
std::vector<ResourceConfig> EnumerateConfigs(
    std::span<const InstanceType> types, int max_per_type);

}  // namespace ccperf::cloud
