#include "cloud/simulator.h"

#include <algorithm>
#include <cmath>

#include "cloud/pricing.h"
#include "common/check.h"

namespace ccperf::cloud {

CloudSimulator::CloudSimulator(InstanceCatalog catalog)
    : catalog_(std::move(catalog)) {}

Seconds CloudSimulator::BatchSeconds(const InstanceType& type,
                                     const VariantPerf& perf,
                                     std::int64_t batch) const {
  CCPERF_CHECK(batch >= 1, "batch must be >= 1");
  const GpuSpec& gpu = catalog_.Gpu(type.gpu);
  CCPERF_CHECK(batch <= gpu.max_batch, "batch ", batch,
               " exceeds GPU capacity ", gpu.max_batch, " of ", type.name);
  const Seconds launch =
      static_cast<double>(perf.kernel_count) * gpu.kernel_launch;
  const Seconds compute = static_cast<double>(batch) *
                          perf.ref_seconds_per_image /
                          (gpu.relative_speed * gpu.Utilization(batch));
  return launch + compute;
}

Seconds CloudSimulator::InstanceSeconds(const InstanceType& type,
                                        const VariantPerf& perf,
                                        std::int64_t images,
                                        std::int64_t batch) const {
  CCPERF_CHECK(images >= 0, "negative image count");
  if (images == 0) return Seconds(0.0);
  const GpuSpec& gpu = catalog_.Gpu(type.gpu);
  // Images per GPU: the instance's GPUs work in parallel on equal shares.
  const std::int64_t per_gpu =
      (images + type.gpus - 1) / static_cast<std::int64_t>(type.gpus);
  const std::int64_t b =
      batch > 0 ? std::min(batch, gpu.max_batch)
                : std::min(per_gpu, gpu.max_batch);
  const std::int64_t full_batches = per_gpu / b;
  const std::int64_t tail = per_gpu % b;
  Seconds seconds = static_cast<double>(full_batches) *
                    BatchSeconds(type, perf, b);
  if (tail > 0) seconds += BatchSeconds(type, perf, tail);
  return seconds;
}

double CloudSimulator::InstanceThroughput(const InstanceType& type,
                                          const VariantPerf& perf) const {
  const GpuSpec& gpu = catalog_.Gpu(type.gpu);
  const std::int64_t b = gpu.max_batch;
  return static_cast<double>(b * type.gpus) /
         BatchSeconds(type, perf, b).value();
}

RunEstimate CloudSimulator::Run(const ResourceConfig& config,
                                const VariantPerf& perf, std::int64_t images,
                                WorkloadSplit split) const {
  CCPERF_CHECK(!config.Empty(), "empty resource configuration");
  CCPERF_CHECK(images >= 1, "need at least one image");

  // Expand to individual resource instances (the paper's R with |R| items).
  std::vector<const InstanceType*> resources;
  for (const auto& [type, count] : config.instances) {
    const InstanceType& t = catalog_.Find(type);
    for (int i = 0; i < count; ++i) resources.push_back(&t);
  }
  const auto n = static_cast<std::int64_t>(resources.size());

  // Workload distribution.
  std::vector<std::int64_t> shares(resources.size(), 0);
  if (split == WorkloadSplit::kEqual) {
    // Eq. 4: W_i = W / |R|, remainder to the first instances.
    const std::int64_t base = images / n;
    const std::int64_t rem = images % n;
    for (std::int64_t i = 0; i < n; ++i) {
      shares[static_cast<std::size_t>(i)] = base + (i < rem ? 1 : 0);
    }
  } else {
    // Proportional to saturated throughput; remainder to the fastest.
    std::vector<double> thr(resources.size());
    double total_thr = 0.0;
    for (std::size_t i = 0; i < resources.size(); ++i) {
      thr[i] = InstanceThroughput(*resources[i], perf);
      total_thr += thr[i];
    }
    std::int64_t assigned = 0;
    for (std::size_t i = 0; i < resources.size(); ++i) {
      shares[i] = static_cast<std::int64_t>(
          std::floor(static_cast<double>(images) * thr[i] / total_thr));
      assigned += shares[i];
    }
    const std::size_t fastest = static_cast<std::size_t>(
        std::max_element(thr.begin(), thr.end()) - thr.begin());
    shares[fastest] += images - assigned;
  }

  RunEstimate estimate;
  for (std::size_t i = 0; i < resources.size(); ++i) {
    InstanceRun run;
    run.type = resources[i]->name;
    run.images = shares[i];
    run.seconds = InstanceSeconds(*resources[i], perf, shares[i]);
    estimate.seconds = std::max(estimate.seconds, run.seconds);
    estimate.instances.push_back(std::move(run));
  }
  // Eq. 1: every resource is billed until the configuration finishes.
  for (const InstanceType* t : resources) {
    estimate.cost_usd += ProratedCost(estimate.seconds, t->price_per_hour);
  }
  return estimate;
}

}  // namespace ccperf::cloud
