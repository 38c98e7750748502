// Cloud resource catalog — the paper's Table 3 (Amazon EC2 Oregon, 2020)
// plus the GPU device parameters of the calibrated performance model.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.h"

namespace ccperf::cloud {

enum class GpuKind { kK80, kM60 };

const char* GpuKindName(GpuKind kind);

/// Calibrated per-GPU device model parameters. `relative_speed` is the
/// sustained throughput relative to the K80 reference (the device the
/// paper's CaffeNet/GoogLeNet reference times were measured on).
struct GpuSpec {
  GpuKind kind = GpuKind::kK80;
  std::string name;          // "NVIDIA K80"
  int cores = 0;             // parallel processing cores (paper §4.1.2)
  double mem_gb = 0.0;       // per-GPU memory
  double relative_speed = 1.0;
  // Utilization model (paper Fig. 5): util(B) = u_min + (1-u_min)(1-e^{-B/b0}).
  // u_min = 0.30 makes batch-1 latency match Fig. 4 (0.09 s CaffeNet);
  // b0 = 150 makes the 50k-image sweep saturate around B = 300 (Fig. 5)
  // with the paper's ~2.3x spread between tiny and saturated batches.
  double util_min = 0.30;
  double util_b0 = 150.0;
  // Per-kernel launch overhead, dominates single-inference latency (Fig. 4).
  Seconds kernel_launch{1.5e-3};
  // Largest batch that fits GPU memory (the paper's b_i).
  std::int64_t max_batch = 2000;

  /// Fraction of peak throughput achieved at batch size `b` (in (0, 1]).
  [[nodiscard]] double Utilization(std::int64_t b) const;
};

/// One EC2 instance type (a row of the paper's Table 3).
struct InstanceType {
  std::string name;      // "p2.xlarge"
  std::string category;  // "p2" / "g3"
  int vcpus = 0;
  int gpus = 0;          // the paper's v_i
  double mem_gb = 0.0;
  double gpu_mem_gb = 0.0;
  UsdPerHour price_per_hour;  // the paper's c_i
  GpuKind gpu = GpuKind::kK80;
  /// Spot-market hourly price. 0 means no spot market for this type.
  /// Appended after `gpu` so positional initializers of the on-demand
  /// columns stay valid.
  UsdPerHour spot_price_per_hour;
  /// Silent-data-corruption onset rate per instance-hour (cloud/sdc.h).
  /// Fleet studies put GPU/DRAM upsets at ~1e-4..1e-2 per device-hour;
  /// the older, denser K80 boards (p2) run hotter than the M60s (g3).
  /// Appended last for the same positional-initializer reason.
  RatePerHour sdc_rate_per_hour;
};

/// Immutable set of instance types + GPU device specs.
class InstanceCatalog {
 public:
  /// The paper's Table 3: six EC2 GPU instance types (p2.*, g3.*).
  static InstanceCatalog AwsEc2();

  /// Custom catalog (tests / other providers).
  InstanceCatalog(std::vector<InstanceType> types, std::vector<GpuSpec> gpus);

  [[nodiscard]] std::span<const InstanceType> Types() const { return types_; }

  /// Lookup by exact name; throws CheckError when absent.
  [[nodiscard]] const InstanceType& Find(const std::string& name) const;

  /// All types of one category ("p2"), in catalog order.
  [[nodiscard]] std::vector<InstanceType> Category(
      const std::string& category) const;

  /// Device spec for a GPU kind; throws when absent.
  [[nodiscard]] const GpuSpec& Gpu(GpuKind kind) const;

 private:
  std::vector<InstanceType> types_;
  std::vector<GpuSpec> gpus_;
};

}  // namespace ccperf::cloud
