#include "core/enumerate.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "cloud/density.h"
#include "cloud/pricing.h"
#include "common/check.h"
#include "common/threading.h"
#include "core/metrics.h"
#include "core/pareto_sweep.h"

namespace ccperf::core {

std::vector<VariantSpec> BuildVariantSpecs(
    const cloud::ModelProfile& profile, const CalibratedAccuracyModel& accuracy,
    const std::vector<pruning::PrunePlan>& plans, bool include_int8) {
  CCPERF_CHECK(!plans.empty(), "no prune plans to expand");
  std::vector<VariantSpec> specs;
  specs.reserve(plans.size() * (include_int8 ? 2 : 1));
  for (const auto& plan : plans) {
    const std::string label = plan.Label();
    const cloud::DensityMap densities = cloud::DensityFromPlan(profile, plan);
    {
      VariantSpec spec;
      spec.label = label;
      spec.perf = cloud::ComputeVariantPerf(profile, densities, label);
      const AccuracyResult acc = accuracy.Evaluate(plan);
      spec.top1 = acc.top1;
      spec.top5 = acc.top5;
      specs.push_back(std::move(spec));
    }
    if (include_int8) {
      VariantSpec spec;
      spec.label = label + "+int8";
      spec.perf = cloud::ComputeVariantPerf(profile, densities, spec.label,
                                            /*int8_enabled=*/true);
      const AccuracyResult acc = accuracy.EvaluateQuantized(plan);
      spec.top1 = acc.top1;
      spec.top5 = acc.top5;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

const char* PurchaseOptionName(PurchaseOption option) {
  return option == PurchaseOption::kOnDemand ? "on-demand" : "spot";
}

// --- MetricRegistry ----------------------------------------------------------

void MetricRegistry::Register(std::string name, std::string description,
                              double (*extract)(const ArchMetrics&),
                              bool lower_is_better) {
  CCPERF_CHECK(!name.empty(), "metric name must be non-empty");
  CCPERF_CHECK(extract != nullptr, "metric '", name, "' has no extractor");
  CCPERF_CHECK(!Contains(name), "metric '", name, "' registered twice");
  Metric metric;
  metric.name = std::move(name);
  metric.description = std::move(description);
  metric.extract = extract;
  metric.lower_is_better = lower_is_better;
  metrics_.push_back(std::move(metric));
}

bool MetricRegistry::Contains(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

const Metric& MetricRegistry::Find(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return m;
  }
  std::string known;
  for (const auto& m : metrics_) {
    if (!known.empty()) known += ", ";
    known += m.name;
  }
  CCPERF_CHECK(false, "unknown metric '", name, "' (registered: ", known, ")");
  // CCPERF_CHECK throws; unreachable.
  return metrics_.front();
}

const MetricRegistry& MetricRegistry::Standard() {
  static const MetricRegistry* const kRegistry = [] {
    auto* r = new MetricRegistry;
    r->Register(
        "time_h", "expected completion time (hours)",
        [](const ArchMetrics& m) { return ToHours(m.seconds).value(); }, true);
    r->Register(
        "cost_usd", "expected run cost (USD)",
        [](const ArchMetrics& m) { return m.cost_usd.value(); }, true);
    r->Register(
        "top1", "effective Top-1 accuracy",
        [](const ArchMetrics& m) { return m.top1; }, false);
    r->Register(
        "top5", "effective Top-5 accuracy",
        [](const ArchMetrics& m) { return m.top5; }, false);
    r->Register(
        "goodput", "base seconds / expected seconds",
        [](const ArchMetrics& m) { return m.goodput; }, false);
    r->Register(
        "interruption_risk", "P(at least one preemption during the run)",
        [](const ArchMetrics& m) { return m.interruption_risk; }, true);
    r->Register(
        "tar", "Time Accuracy Ratio (s per unit Top-5)",
        [](const ArchMetrics& m) {
          return TimeAccuracyRatio(m.seconds, m.top5);
        },
        true);
    r->Register(
        "car", "Cost Accuracy Ratio (USD per unit Top-5)",
        [](const ArchMetrics& m) {
          return CostAccuracyRatio(m.cost_usd, m.top5);
        },
        true);
    r->Register(
        "delivered_top1", "Top-1 after undetected silent corruption",
        [](const ArchMetrics& m) { return m.delivered_top1; }, false);
    r->Register(
        "sdc_escape_rate", "fraction of work delivered corrupted",
        [](const ArchMetrics& m) { return m.sdc_escape_rate; }, true);
    r->Register(
        "detection_overhead", "fractional time billed to SDC detection",
        [](const ArchMetrics& m) { return m.detection_overhead; }, true);
    return r;
  }();
  return *kRegistry;
}

// --- ArchitectureSpace -------------------------------------------------------

void ArchitectureSpace::AddVariant(VariantSpec variant) {
  variants_.push_back(std::move(variant));
}

void ArchitectureSpace::AddVariants(std::vector<VariantSpec> variants) {
  for (auto& v : variants) variants_.push_back(std::move(v));
}

void ArchitectureSpace::AddInstanceType(std::string name) {
  type_names_.push_back(std::move(name));
}

void ArchitectureSpace::SetCounts(std::vector<int> counts) {
  counts_ = std::move(counts);
}

void ArchitectureSpace::SetBatches(std::vector<std::int64_t> batches) {
  batches_ = std::move(batches);
}

void ArchitectureSpace::SetPurchaseOptions(
    std::vector<PurchaseOption> options) {
  purchase_ = std::move(options);
}

void ArchitectureSpace::AddCheckpointOption(CheckpointOption option) {
  checkpoints_.push_back(std::move(option));
}

void ArchitectureSpace::AddDegradationOption(DegradationOption option) {
  degradations_.push_back(std::move(option));
}

void ArchitectureSpace::AddSdcOption(SdcOption option) {
  sdc_.push_back(std::move(option));
}

const std::vector<SdcOption>& ArchitectureSpace::SdcOptions() const {
  if (!sdc_.empty()) return sdc_;
  // Implicit single-entry axis: SDC not modeled. A radix of 1 leaves every
  // flat id exactly as it was before this axis existed.
  static const std::vector<SdcOption>* const kOff = [] {
    auto* v = new std::vector<SdcOption>(1);
    (*v)[0].name = "off";
    return v;
  }();
  return *kOff;
}

void ArchitectureSpace::Validate() const {
  CCPERF_CHECK(!variants_.empty(), "variant axis is empty");
  CCPERF_CHECK(!type_names_.empty(), "instance-type axis is empty");
  CCPERF_CHECK(!counts_.empty(), "count axis is empty");
  CCPERF_CHECK(!batches_.empty(), "batch axis is empty");
  CCPERF_CHECK(!purchase_.empty(), "purchase axis is empty");
  CCPERF_CHECK(!checkpoints_.empty(), "checkpoint axis is empty");
  CCPERF_CHECK(!degradations_.empty(), "degradation axis is empty");
  for (const auto& v : variants_) {
    CCPERF_CHECK(v.perf.ref_seconds_per_image > Seconds(0.0), "variant '",
                 v.label, "' has non-positive reference time");
    CCPERF_CHECK(v.top1 > 0.0 && v.top1 <= 1.0 && v.top5 > 0.0 &&
                     v.top5 <= 1.0,
                 "variant '", v.label, "' accuracy outside (0, 1]");
  }
  for (int c : counts_) CCPERF_CHECK(c >= 1, "instance count must be >= 1");
  for (std::int64_t b : batches_)
    CCPERF_CHECK(b >= 0, "batch must be >= 0 (0 = auto)");
  for (const auto& ckpt : checkpoints_) {
    CCPERF_CHECK(!ckpt.name.empty(), "checkpoint option needs a name");
    if (ckpt.enabled) cloud::ValidateCheckpointPolicy(ckpt.policy);
  }
  for (const auto& degr : degradations_) {
    CCPERF_CHECK(!degr.name.empty(), "degradation option needs a name");
    CCPERF_CHECK(degr.recompute_speedup >= 1.0,
                 "degradation '", degr.name, "' recompute speedup < 1");
    CCPERF_CHECK(degr.accuracy_factor > 0.0 && degr.accuracy_factor <= 1.0,
                 "degradation '", degr.name,
                 "' accuracy factor outside (0, 1]");
  }
  for (const auto& sdc : sdc_) {
    CCPERF_CHECK(!sdc.name.empty(), "SDC option needs a name");
    sdc.policy.Validate();
  }
}

AxisSizes ArchitectureSpace::Sizes() const {
  Validate();
  AxisSizes sizes;
  sizes.variant = variants_.size();
  sizes.type = type_names_.size();
  sizes.count = counts_.size();
  sizes.batch = batches_.size();
  sizes.purchase = purchase_.size();
  sizes.checkpoint = checkpoints_.size();
  sizes.degradation = degradations_.size();
  sizes.sdc = SdcOptions().size();
  for (const std::uint64_t n :
       {sizes.variant, sizes.type, sizes.count, sizes.batch, sizes.purchase,
        sizes.checkpoint, sizes.degradation, sizes.sdc}) {
    CCPERF_CHECK(sizes.total <= UINT64_MAX / n,
                 "architecture space overflows 64 bits");
    sizes.total *= n;
  }
  return sizes;
}

std::uint64_t ArchitectureSpace::Size() const { return Sizes().total; }

std::uint64_t ArchitectureSpace::Encode(const AxisPoint& point) const {
  CCPERF_CHECK(point.variant < variants_.size() &&
                   point.type < type_names_.size() &&
                   point.count < counts_.size() &&
                   point.batch < batches_.size() &&
                   point.purchase < purchase_.size() &&
                   point.checkpoint < checkpoints_.size() &&
                   point.degradation < degradations_.size() &&
                   point.sdc < SdcOptions().size(),
               "axis index out of range");
  std::uint64_t id = point.variant;
  id = id * type_names_.size() + point.type;
  id = id * counts_.size() + point.count;
  id = id * batches_.size() + point.batch;
  id = id * purchase_.size() + point.purchase;
  id = id * checkpoints_.size() + point.checkpoint;
  id = id * degradations_.size() + point.degradation;
  id = id * SdcOptions().size() + point.sdc;
  return id;
}

AxisPoint AxisSizes::Decode(std::uint64_t id) const {
  CCPERF_CHECK(id < total, "flat id ", id, " out of range");
  AxisPoint point;
  point.sdc = static_cast<std::size_t>(id % sdc);
  id /= sdc;
  point.degradation = static_cast<std::size_t>(id % degradation);
  id /= degradation;
  point.checkpoint = static_cast<std::size_t>(id % checkpoint);
  id /= checkpoint;
  point.purchase = static_cast<std::size_t>(id % purchase);
  id /= purchase;
  point.batch = static_cast<std::size_t>(id % batch);
  id /= batch;
  point.count = static_cast<std::size_t>(id % count);
  id /= count;
  point.type = static_cast<std::size_t>(id % type);
  id /= type;
  point.variant = static_cast<std::size_t>(id);
  return point;
}

AxisPoint ArchitectureSpace::Decode(std::uint64_t id) const {
  return Sizes().Decode(id);
}

std::string ArchitectureSpace::Describe(std::uint64_t id) const {
  const AxisPoint p = Decode(id);
  std::ostringstream out;
  out << variants_[p.variant].label << " | " << counts_[p.count] << "x"
      << type_names_[p.type] << " | batch=";
  if (batches_[p.batch] == 0) {
    out << "auto";
  } else {
    out << batches_[p.batch];
  }
  out << " | " << PurchaseOptionName(purchase_[p.purchase])
      << " | ckpt=" << checkpoints_[p.checkpoint].name
      << " | degr=" << degradations_[p.degradation].name;
  // Only an explicit SDC axis shows up, so pre-axis descriptions round-trip.
  if (!sdc_.empty()) out << " | sdc=" << sdc_[p.sdc].name;
  return out.str();
}

// --- ArchitectureEvaluator ---------------------------------------------------

ArchitectureEvaluator::ArchitectureEvaluator(const cloud::CloudSimulator& sim,
                                             const ArchitectureSpace& space,
                                             RatePerHour preemption_rate,
                                             Seconds restart)
    : sim_(sim),
      space_(space),
      sizes_(space_.Sizes()),
      preemption_rate_per_hour_(preemption_rate.value()),
      restart_s_(restart.value()) {
  CCPERF_CHECK(preemption_rate_per_hour_ >= 0.0,
               "preemption rate must be >= 0");
  CCPERF_CHECK(restart_s_ >= 0.0, "restart time must be >= 0");
  types_.reserve(space_.TypeNames().size());
  for (const auto& name : space_.TypeNames()) {
    types_.push_back(&sim_.Catalog().Find(name));
  }
}

bool ArchitectureEvaluator::Evaluate(std::uint64_t id, std::int64_t images,
                                     ArchMetrics& out) const {
  CCPERF_CHECK(images >= 1, "need at least one image");
  const AxisPoint p = sizes_.Decode(id);
  const VariantSpec& variant = space_.Variants()[p.variant];
  const cloud::InstanceType& type = *types_[p.type];
  const int count = space_.Counts()[p.count];
  const std::int64_t batch = space_.Batches()[p.batch];
  const PurchaseOption purchase = space_.PurchaseOptions()[p.purchase];
  const CheckpointOption& ckpt = space_.CheckpointOptions()[p.checkpoint];
  const DegradationOption& degr = space_.DegradationOptions()[p.degradation];
  const SdcOption& sdc = space_.SdcOptions()[p.sdc];

  if (purchase == PurchaseOption::kSpot &&
      type.spot_price_per_hour <= UsdPerHour(0.0)) {
    return false;  // no spot market for this type
  }

  // Eqs. 2/4 for a homogeneous fleet: equal split with the remainder going
  // to the first instances, T = the largest share's time (matches
  // CloudSimulator::Run for a single-type config, proven in tests).
  const auto fleet = static_cast<std::int64_t>(count);
  const std::int64_t base_share = images / fleet;
  const std::int64_t max_share = base_share + (images % fleet > 0 ? 1 : 0);
  const Seconds base_time =
      sim_.InstanceSeconds(type, variant.perf, max_share, batch);
  const double base_seconds = base_time.value();

  ArchMetrics m;
  m.top1 = variant.top1;
  m.top5 = variant.top5;

  if (purchase == PurchaseOption::kOnDemand) {
    m.seconds = base_time;
    m.cost_usd = cloud::ProratedCost(base_time,
                                     type.price_per_hour * count);
    m.goodput = 1.0;
    m.interruption_risk = 0.0;
    return FinishWithSdc(m, sdc, type, purchase, count, base_time, out);
  }

  // Spot: preemptions arrive Poisson at `rate` per instance-hour.
  const double fleet_rate = preemption_rate_per_hour_ * count;
  double productive_s = base_seconds;  // base + snapshot overhead
  double replay_s = 0.0;               // lost work replayed after preemptions
  double reprovision_s = 0.0;          // restart delay, not replayable work
  if (!ckpt.enabled) {
    // No snapshots: every preemption restarts the run from zero — the
    // classic (e^{λt}-1)/λ expectation (core/metrics.h).
    const double expected =
        ExpectedSecondsUnderInterruption(base_time, RatePerHour(fleet_rate))
            .value();
    replay_s = expected - base_seconds;
  } else {
    // Mirrors EstimateSpotRun (cloud/checkpoint.cpp): adaptive resolves to
    // Young's interval for the per-instance MTBF; overhead is one snapshot
    // cost per interval; each preemption loses half an interval (nothing,
    // on the warning trigger) plus the reprovisioning delay.
    double interval = ckpt.policy.interval_s;
    if (ckpt.policy.trigger == cloud::CheckpointTrigger::kAdaptive &&
        preemption_rate_per_hour_ > 0.0 && ckpt.policy.snapshot_cost_s > 0.0) {
      interval = cloud::YoungInterval(ckpt.policy.snapshot_cost_s,
                                      3600.0 / preemption_rate_per_hour_);
    }
    interval = std::clamp(interval, std::max(ckpt.policy.snapshot_cost_s, 1e-3),
                          std::max(base_seconds, 1e-3));
    productive_s += std::floor(base_seconds / interval) *
                    ckpt.policy.snapshot_cost_s;
    const double expected_preemptions =
        fleet_rate * (productive_s / 3600.0);
    const double window =
        ckpt.policy.trigger == cloud::CheckpointTrigger::kOnPreemptionWarning
            ? 0.0
            : interval / 2.0;
    replay_s = expected_preemptions * window;
    reprovision_s = expected_preemptions * restart_s_;
  }

  // The degradation policy replays lost windows faster at lower accuracy;
  // only the replayed fraction of the run is degraded.
  replay_s /= degr.recompute_speedup;
  const double expected_s = productive_s + replay_s + reprovision_s;
  const double degraded_fraction = expected_s > 0.0 ? replay_s / expected_s : 0.0;
  const double accuracy_scale =
      1.0 - degraded_fraction * (1.0 - degr.accuracy_factor);

  m.seconds = Seconds(expected_s);
  m.cost_usd = cloud::ProratedCost(Seconds(expected_s),
                                   type.spot_price_per_hour * count);
  m.top1 = variant.top1 * accuracy_scale;
  m.top5 = variant.top5 * accuracy_scale;
  m.goodput = expected_s > 0.0 ? base_seconds / expected_s : 1.0;
  m.interruption_risk = 1.0 - std::exp(-fleet_rate * expected_s / 3600.0);
  return FinishWithSdc(m, sdc, type, purchase, count, base_time, out);
}

bool ArchitectureEvaluator::FinishWithSdc(ArchMetrics& m, const SdcOption& sdc,
                                          const cloud::InstanceType& type,
                                          PurchaseOption purchase, int count,
                                          Seconds base_seconds,
                                          ArchMetrics& out) const {
  if (sdc.policy.kind == cloud::SdcPolicyKind::kOff) {
    // SDC not modeled: delivered == effective, nothing else touched, so the
    // row is bitwise identical to the pre-SDC evaluator.
    m.delivered_top1 = m.top1;
    m.delivered_top5 = m.top5;
    out = m;
    return true;
  }
  const cloud::SdcAssessment assess =
      cloud::AssessSdc(sdc.policy, type.sdc_rate_per_hour, m.seconds);
  // Detection machinery and redone work stretch the run, which re-bills
  // through the purchase option's hourly rate (the paper's Eq. 3-4 cost).
  m.seconds *= 1.0 + assess.time_overhead;
  const UsdPerHour hourly = (purchase == PurchaseOption::kOnDemand
                                 ? type.price_per_hour
                                 : type.spot_price_per_hour) *
                            count;
  m.cost_usd = cloud::ProratedCost(m.seconds, hourly);
  m.goodput = m.seconds > Seconds(0.0) ? base_seconds / m.seconds : 1.0;
  m.delivered_top1 = cloud::DeliveredAccuracy(m.top1, assess.escape_fraction,
                                              cloud::kCorruptTop1Factor);
  m.delivered_top5 = cloud::DeliveredAccuracy(m.top5, assess.escape_fraction,
                                              cloud::kCorruptTop5Factor);
  m.sdc_escape_rate = assess.escape_fraction;
  m.detection_overhead = assess.time_overhead;
  out = m;
  return true;
}

// --- EnumerateFrontier -------------------------------------------------------

namespace {

/// Compact the candidate rows (frontier prefix ∪ fresh block, ascending flat
/// id) down to their 3-D frontier in place.
void CompactCandidates(std::vector<std::uint64_t>& ids,
                       std::vector<ArchMetrics>& rows, bool use_top5,
                       bool use_delivered) {
  const std::size_t n = ids.size();
  std::vector<double> time(n);
  std::vector<double> cost(n);
  std::vector<double> accuracy(n);
  for (std::size_t i = 0; i < n; ++i) {
    time[i] = rows[i].seconds.value();
    cost[i] = rows[i].cost_usd.value();
    accuracy[i] = use_delivered
                      ? (use_top5 ? rows[i].delivered_top5
                                  : rows[i].delivered_top1)
                      : (use_top5 ? rows[i].top5 : rows[i].top1);
  }
  const std::vector<std::size_t> keep =
      SweepParetoFrontier3(time, cost, accuracy);
  for (std::size_t k = 0; k < keep.size(); ++k) {
    ids[k] = ids[keep[k]];
    rows[k] = rows[keep[k]];
  }
  ids.resize(keep.size());
  rows.resize(keep.size());
}

}  // namespace

EnumerationResult EnumerateFrontier(const ArchitectureEvaluator& evaluator,
                                    const EnumerationOptions& options) {
  CCPERF_CHECK(options.block >= 1, "block must be >= 1");
  CCPERF_CHECK(options.images >= 1, "need at least one image");
  const ArchitectureSpace& space = evaluator.Space();
  const std::uint64_t total = space.Size();

  EnumerationResult result;
  std::vector<std::uint64_t> ids;   // frontier prefix + fresh feasible rows
  std::vector<ArchMetrics> rows;    // parallel to `ids`
  std::vector<ArchMetrics> slot(options.block);
  std::vector<char> keep(options.block);

  for (std::uint64_t begin = 0; begin < total; begin += options.block) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(options.block, total - begin));
    const auto evaluate = [&](std::size_t i) {
      ArchMetrics m;
      const bool ok =
          evaluator.Evaluate(begin + i, options.images, m) &&
          m.seconds <= options.deadline_s && m.cost_usd <= options.budget_usd;
      keep[i] = ok ? 1 : 0;
      if (ok) slot[i] = m;  // slot-per-task: no cross-task writes
    };
    if (options.serial) {
      ScopedSerial serial;
      ParallelFor(0, n, evaluate);
    } else {
      ParallelFor(0, n, evaluate);
    }
    result.evaluated += n;

    const std::size_t frontier_rows = ids.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (!keep[i]) continue;
      ids.push_back(begin + i);
      rows.push_back(slot[i]);
      ++result.feasible;
    }
    result.peak_candidates = std::max(result.peak_candidates, ids.size());
    if (ids.size() > frontier_rows) {
      CompactCandidates(ids, rows, options.use_top5, options.use_delivered);
    }
  }

  result.frontier.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    result.frontier.push_back(FrontierPoint{ids[i], rows[i]});
  }
  return result;
}

}  // namespace ccperf::core
