// CloudSimulator: the paper's analytical time/cost model (Eqs. 1-4) driven
// by the calibrated GPU device model.
//
//   T    = max over instances of per-instance inference time       (Eq. 2)
//   n    = W / b batches per GPU                                   (Eq. 3)
//   W_i  = W / |R| images per resource (equal split)               (Eq. 4)
//   C    = prorated T x sum of c_i                                 (Eq. 1)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/instance_catalog.h"
#include "cloud/resource_config.h"
#include "cloud/variant_perf.h"
#include "common/units.h"

namespace ccperf::cloud {

/// How inference images are split across the instances of a configuration.
enum class WorkloadSplit {
  kEqual,         // the paper's Eq. 4: W_i = W / |R|
  kProportional,  // extension: W_i proportional to instance throughput
};

/// Per-instance share of a run.
struct InstanceRun {
  std::string type;
  std::int64_t images = 0;
  Seconds seconds;
};

/// Predicted execution of one (variant, configuration, workload) triple.
struct RunEstimate {
  Seconds seconds;  // the paper's T (max over instances)
  Usd cost_usd;     // the paper's C (Eq. 1, per-second prorated)
  std::vector<InstanceRun> instances;
};

/// Analytical execution model over a catalog of instance types.
class CloudSimulator {
 public:
  explicit CloudSimulator(InstanceCatalog catalog);

  [[nodiscard]] const InstanceCatalog& Catalog() const { return catalog_; }

  /// Time for one batch of `batch` images on one GPU of `type`.
  [[nodiscard]] Seconds BatchSeconds(const InstanceType& type,
                                     const VariantPerf& perf,
                                     std::int64_t batch) const;

  /// Time for `images` images on one instance of `type`, splitting evenly
  /// across its GPUs. `batch` 0 picks the largest batch that fits the GPU.
  [[nodiscard]] Seconds InstanceSeconds(const InstanceType& type,
                                        const VariantPerf& perf,
                                        std::int64_t images,
                                        std::int64_t batch = 0) const;

  /// Full prediction for a configuration (Eqs. 1-4).
  [[nodiscard]] RunEstimate Run(const ResourceConfig& config,
                                const VariantPerf& perf, std::int64_t images,
                                WorkloadSplit split = WorkloadSplit::kEqual) const;

  /// Images/second one instance sustains at saturation (used by the
  /// proportional split and by capacity planning examples).
  [[nodiscard]] double InstanceThroughput(const InstanceType& type,
                                          const VariantPerf& perf) const;

 private:
  InstanceCatalog catalog_;
};

}  // namespace ccperf::cloud
