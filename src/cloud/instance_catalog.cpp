#include "cloud/instance_catalog.h"

#include <cmath>

#include "common/check.h"

namespace ccperf::cloud {

const char* GpuKindName(GpuKind kind) {
  switch (kind) {
    case GpuKind::kK80: return "NVIDIA K80";
    case GpuKind::kM60: return "NVIDIA M60";
  }
  return "?";
}

double GpuSpec::Utilization(std::int64_t b) const {
  CCPERF_CHECK(b >= 1, "batch must be >= 1");
  const double u = util_min + (1.0 - util_min) *
                                  (1.0 - std::exp(-static_cast<double>(b) /
                                                  util_b0));
  return std::min(1.0, u);
}

InstanceCatalog::InstanceCatalog(std::vector<InstanceType> types,
                                 std::vector<GpuSpec> gpus)
    : types_(std::move(types)), gpus_(std::move(gpus)) {
  CCPERF_CHECK(!types_.empty(), "catalog needs at least one instance type");
  for (const auto& t : types_) {
    CCPERF_CHECK(t.gpus >= 1 && t.price_per_hour > UsdPerHour(0.0),
                 "invalid instance type ", t.name);
    CCPERF_CHECK(t.spot_price_per_hour >= UsdPerHour(0.0) &&
                     t.spot_price_per_hour <= t.price_per_hour,
                 "spot price of ", t.name,
                 " must be in [0, on-demand price]");
    CCPERF_CHECK(t.sdc_rate_per_hour >= RatePerHour(0.0) &&
                     std::isfinite(t.sdc_rate_per_hour.value()),
                 "SDC rate of ", t.name, " must be finite and >= 0");
  }
}

InstanceCatalog InstanceCatalog::AwsEc2() {
  // GPU device models. The M60's relative_speed is calibrated so the g3
  // family's CAR sits below the p2 family's by the paper's Fig. 12 ratio
  // (~0.35 vs ~0.57, i.e. g3/p2 ~ 0.61): with g3 prices 1.27x p2 per GPU,
  // the M60 must sustain ~2.05x the K80's per-GPU inference throughput.
  GpuSpec k80{.kind = GpuKind::kK80,
              .name = "NVIDIA K80",
              .cores = 2496,
              .mem_gb = 12.0,
              .relative_speed = 1.0,
              .util_min = 0.30,
              .util_b0 = 150.0,
              .kernel_launch = Seconds(1.5e-3),
              .max_batch = 2000};
  GpuSpec m60{.kind = GpuKind::kM60,
              .name = "NVIDIA M60",
              .cores = 2048,
              .mem_gb = 8.0,
              .relative_speed = 2.05,
              .util_min = 0.30,
              .util_b0 = 150.0,
              .kernel_launch = Seconds(1.2e-3),
              .max_batch = 1300};

  // The paper's Table 3 verbatim (Amazon EC2, Oregon region, 2020 prices).
  // Spot prices follow the region's typical ~70% discount off on-demand.
  // SDC onset rates scale with GPU count and board generation: the older,
  // hotter K80 boards (p2) at 3e-3 per GPU-hour, the M60s (g3) at 1e-3 —
  // inside the 1e-4..1e-2 per device-hour envelope fleet studies report.
  std::vector<InstanceType> types{
      {"p2.xlarge", "p2", 4, 1, 61.0, 12.0, UsdPerHour(0.90), GpuKind::kK80,
       UsdPerHour(0.270), RatePerHour(0.003)},
      {"p2.8xlarge", "p2", 32, 8, 488.0, 96.0, UsdPerHour(7.20),
       GpuKind::kK80, UsdPerHour(2.160), RatePerHour(0.024)},
      {"p2.16xlarge", "p2", 64, 16, 732.0, 192.0, UsdPerHour(14.40),
       GpuKind::kK80, UsdPerHour(4.320), RatePerHour(0.048)},
      {"g3.4xlarge", "g3", 16, 1, 122.0, 8.0, UsdPerHour(1.14), GpuKind::kM60,
       UsdPerHour(0.342), RatePerHour(0.001)},
      {"g3.8xlarge", "g3", 32, 2, 244.0, 16.0, UsdPerHour(2.28),
       GpuKind::kM60, UsdPerHour(0.684), RatePerHour(0.002)},
      {"g3.16xlarge", "g3", 64, 4, 488.0, 32.0, UsdPerHour(4.56),
       GpuKind::kM60, UsdPerHour(1.368), RatePerHour(0.004)},
  };
  return InstanceCatalog(std::move(types), {k80, m60});
}

const InstanceType& InstanceCatalog::Find(const std::string& name) const {
  for (const auto& t : types_) {
    if (t.name == name) return t;
  }
  CCPERF_CHECK(false, "unknown instance type '", name, "'");
}

std::vector<InstanceType> InstanceCatalog::Category(
    const std::string& category) const {
  std::vector<InstanceType> result;
  for (const auto& t : types_) {
    if (t.category == category) result.push_back(t);
  }
  return result;
}

const GpuSpec& InstanceCatalog::Gpu(GpuKind kind) const {
  for (const auto& g : gpus_) {
    if (g.kind == kind) return g;
  }
  CCPERF_CHECK(false, "no GPU spec for kind ", GpuKindName(kind));
}

}  // namespace ccperf::cloud
