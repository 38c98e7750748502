#include "cloud/resource_config.h"

#include "common/check.h"

namespace ccperf::cloud {

int ResourceConfig::TotalInstances() const {
  int total = 0;
  for (const auto& [_, count] : instances) total += count;
  return total;
}

std::string ResourceConfig::ToString() const {
  if (instances.empty()) return "(empty)";
  std::string s;
  for (const auto& [type, count] : instances) {
    if (!s.empty()) s += "+";
    s += std::to_string(count) + "x" + type;
  }
  return s;
}

void ResourceConfig::Add(const std::string& type, int count) {
  CCPERF_CHECK(count >= 1, "count must be positive");
  for (auto& [existing, existing_count] : instances) {
    if (existing == type) {
      existing_count += count;
      return;
    }
  }
  instances.emplace_back(type, count);
}

UsdPerHour PricePerHour(const ResourceConfig& config,
                        const InstanceCatalog& catalog) {
  UsdPerHour price;
  for (const auto& [type, count] : config.instances) {
    price += catalog.Find(type).price_per_hour * count;
  }
  return price;
}

std::vector<ResourceConfig> EnumerateConfigs(
    std::span<const InstanceType> types, int max_per_type) {
  CCPERF_CHECK(!types.empty(), "no instance types to enumerate");
  CCPERF_CHECK(max_per_type >= 1, "max_per_type must be >= 1");
  std::vector<ResourceConfig> configs;
  std::vector<int> counts(types.size(), 0);
  for (;;) {
    // Odometer increment over per-type counts.
    std::size_t axis = 0;
    while (axis < counts.size() && ++counts[axis] > max_per_type) {
      counts[axis] = 0;
      ++axis;
    }
    if (axis == counts.size()) break;
    ResourceConfig config;
    for (std::size_t i = 0; i < types.size(); ++i) {
      if (counts[i] > 0) config.Add(types[i].name, counts[i]);
    }
    configs.push_back(std::move(config));
  }
  return configs;
}

}  // namespace ccperf::cloud
