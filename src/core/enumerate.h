// Architecture-space enumeration engine (ROADMAP item 2).
//
// The paper's Figs. 9/10 sweep (variant × configuration); real deployment
// adds purchase option (on-demand vs spot), batch size, checkpoint policy,
// accuracy-degradation policy and silent-corruption detection policy
// (cloud/sdc.h). The cross product is millions of configurations, so the
// engine never materializes the space:
//
//   ArchitectureSpace     — the combinatorial axes + a mixed-radix flat id;
//                           Encode/Decode are exact inverses and the flat id
//                           doubles as the keep-first tie-break identity.
//   MetricRegistry        — registered-once named metrics over ArchMetrics
//                           (time, cost, top-1/top-5, goodput, interruption
//                           risk, TAR/CAR) driving CLI sort/filter/CSV.
//   ArchitectureEvaluator — flat id -> ArchMetrics through the calibrated
//                           analytic models (CloudSimulator Eqs. 1-4, spot
//                           economics mirroring EstimateSpotRun, metrics.h
//                           no-checkpoint restart expectation). Pure
//                           function of the id: bitwise-reproducible.
//   EnumerateFrontier     — streamed block-wise evaluation (slot-per-task
//                           ParallelFor, bitwise-equal to serial) feeding
//                           the sorted-sweep Pareto filter
//                           (core/pareto_sweep.h); memory stays
//                           O(frontier + block), never O(space).
//
// The evaluator models homogeneous fleets (count × one instance type) — the
// shape the axis product enumerates; heterogeneous multi-type
// configurations keep going through ConfigSpaceExplorer, whose frontiers
// now run on the same sweep filter.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cloud/checkpoint.h"
#include "cloud/instance_catalog.h"
#include "cloud/model_profile.h"
#include "cloud/sdc.h"
#include "cloud/simulator.h"
#include "cloud/variant_perf.h"
#include "core/accuracy_model.h"
#include "pruning/prune_plan.h"

namespace ccperf::core {

/// One entry of the variant axis: a pruned (and possibly quantized) model
/// with its device-independent perf profile and modeled accuracy.
struct VariantSpec {
  std::string label;
  cloud::VariantPerf perf;
  double top1 = 0.0;
  double top5 = 0.0;
};

/// Expand prune plans into variant-axis entries: one float entry per plan,
/// plus (when `include_int8`) one int8 entry priced through the quantized
/// time factor and the additive quant damage.
std::vector<VariantSpec> BuildVariantSpecs(
    const cloud::ModelProfile& profile, const CalibratedAccuracyModel& accuracy,
    const std::vector<pruning::PrunePlan>& plans, bool include_int8);

/// How the fleet is bought.
enum class PurchaseOption { kOnDemand, kSpot };

/// "on-demand" / "spot".
const char* PurchaseOptionName(PurchaseOption option);

/// One entry of the checkpoint-policy axis. `enabled` false ("none") means
/// no snapshots: a spot preemption restarts the whole run (the metrics.h
/// (e^{λt}-1)/λ expectation). The policy is ignored on on-demand rows.
struct CheckpointOption {
  std::string name;
  bool enabled = false;
  cloud::CheckpointPolicy policy;
};

/// One entry of the degradation-policy axis: when a spot preemption forces
/// recompute, the degraded path replays the lost window `recompute_speedup`×
/// faster at `accuracy_factor` of the variant's accuracy (applied to the
/// recompute fraction of the run only). {1, 1} is "none". Ignored on
/// on-demand rows.
struct DegradationOption {
  std::string name;
  double recompute_speedup = 1.0;
  double accuracy_factor = 1.0;
};

/// One entry of the SDC-detection axis (cloud/sdc.h): how much silent-data-
/// corruption checking the deployment buys. The implicit default axis is a
/// single "off" entry (SDC not modeled), which keeps flat ids — and every
/// result computed before this axis existed — unchanged.
struct SdcOption {
  std::string name;
  cloud::SdcPolicy policy;
};

/// Everything a config costs and delivers — computed once per flat id; the
/// MetricRegistry exposes named views over these fields.
struct ArchMetrics {
  Seconds seconds;         // expected completion time (spot effects included)
  Usd cost_usd;            // expected cost at the purchase option's price
  double top1 = 0.0;       // effective accuracy (degradation included)
  double top5 = 0.0;
  double goodput = 1.0;    // base_seconds / expected_seconds, in (0, 1]
  double interruption_risk = 0.0;  // P(>=1 preemption during the run)
  // Silent-corruption view (cloud/sdc.h). Under SdcPolicyKind::kOff these
  // degenerate to delivered == effective and zero escape/overhead, so
  // detection-free rows plot on the same axes.
  double delivered_top1 = 0.0;  // accuracy after undetected corruption
  double delivered_top5 = 0.0;
  double sdc_escape_rate = 0.0;       // corrupted work delivered as correct
  double detection_overhead = 0.0;    // fractional time billed to detection
};

/// A named scalar view over ArchMetrics.
struct Metric {
  std::string name;
  std::string description;
  double (*extract)(const ArchMetrics&) = nullptr;
  bool lower_is_better = true;
};

/// Registered-once metric table. Registration rejects duplicate names;
/// Standard() is the process-wide registry every tool sorts/filters by.
class MetricRegistry {
 public:
  MetricRegistry() = default;

  /// Throws CheckError on a duplicate name or null extractor.
  void Register(std::string name, std::string description,
                double (*extract)(const ArchMetrics&), bool lower_is_better);

  [[nodiscard]] bool Contains(const std::string& name) const;
  /// Throws CheckError when absent (message lists the registered names).
  [[nodiscard]] const Metric& Find(const std::string& name) const;
  [[nodiscard]] const std::vector<Metric>& All() const { return metrics_; }

  /// time_h, cost_usd, top1, top5, goodput, interruption_risk, tar, car,
  /// delivered_top1, sdc_escape_rate, detection_overhead.
  static const MetricRegistry& Standard();

 private:
  std::vector<Metric> metrics_;  // registration order
};

/// Per-axis indices of one configuration (the decoded flat id).
struct AxisPoint {
  std::size_t variant = 0;
  std::size_t type = 0;
  std::size_t count = 0;
  std::size_t batch = 0;
  std::size_t purchase = 0;
  std::size_t checkpoint = 0;
  std::size_t degradation = 0;
  std::size_t sdc = 0;
};

/// The validated axis sizes of an ArchitectureSpace: the eight radices of
/// its mixed-radix flat id and their product. A plain value, so a holder can
/// validate the space once and then decode ids with arithmetic alone.
struct AxisSizes {
  std::uint64_t variant = 1;
  std::uint64_t type = 1;
  std::uint64_t count = 1;
  std::uint64_t batch = 1;
  std::uint64_t purchase = 1;
  std::uint64_t checkpoint = 1;
  std::uint64_t degradation = 1;
  std::uint64_t sdc = 1;
  std::uint64_t total = 1;  // product of the eight radices

  /// Per-axis indices of flat id `id`; throws CheckError unless id < total.
  [[nodiscard]] AxisPoint Decode(std::uint64_t id) const;
};

/// The combinatorial space: variant × instance type × count × batch ×
/// purchase × checkpoint policy × degradation policy × SDC policy. Ids are
/// mixed-radix with variant the slowest axis and SDC the fastest, so the
/// flat id is also the enumeration (input) order of every sweep. The SDC
/// axis defaults to a single implicit "off" entry, so spaces built before
/// it existed keep their exact flat ids.
class ArchitectureSpace {
 public:
  ArchitectureSpace() = default;

  // Builders append axis entries; Validate() (and any query) requires every
  // axis non-empty.
  void AddVariant(VariantSpec variant);
  void AddVariants(std::vector<VariantSpec> variants);
  void AddInstanceType(std::string name);
  void SetCounts(std::vector<int> counts);          // each >= 1
  void SetBatches(std::vector<std::int64_t> batches);  // 0 = auto (largest fit)
  void SetPurchaseOptions(std::vector<PurchaseOption> options);
  void AddCheckpointOption(CheckpointOption option);
  void AddDegradationOption(DegradationOption option);
  /// Appends an SDC-detection option. Never calling this leaves the
  /// implicit single-"off" axis in place (ids and Size() unchanged).
  void AddSdcOption(SdcOption option);

  /// Throws CheckError when an axis is empty or an entry is invalid.
  void Validate() const;

  /// Validates the space, then returns its axis sizes; throws CheckError
  /// when their product overflows 64 bits.
  [[nodiscard]] AxisSizes Sizes() const;

  /// Product of the axis sizes (Sizes().total).
  [[nodiscard]] std::uint64_t Size() const;

  [[nodiscard]] std::uint64_t Encode(const AxisPoint& point) const;
  /// Sizes().Decode(id).
  [[nodiscard]] AxisPoint Decode(std::uint64_t id) const;

  /// "conv1@30 | 4xp2.xlarge | batch=auto | spot | ckpt=adaptive | degr=none"
  /// (plus " | sdc=<name>" once the SDC axis has explicit entries).
  [[nodiscard]] std::string Describe(std::uint64_t id) const;

  [[nodiscard]] const std::vector<VariantSpec>& Variants() const {
    return variants_;
  }
  [[nodiscard]] const std::vector<std::string>& TypeNames() const {
    return type_names_;
  }
  [[nodiscard]] const std::vector<int>& Counts() const { return counts_; }
  [[nodiscard]] const std::vector<std::int64_t>& Batches() const {
    return batches_;
  }
  [[nodiscard]] const std::vector<PurchaseOption>& PurchaseOptions() const {
    return purchase_;
  }
  [[nodiscard]] const std::vector<CheckpointOption>& CheckpointOptions() const {
    return checkpoints_;
  }
  [[nodiscard]] const std::vector<DegradationOption>& DegradationOptions()
      const {
    return degradations_;
  }
  /// The effective axis: explicit entries, or the implicit single "off".
  [[nodiscard]] const std::vector<SdcOption>& SdcOptions() const;

 private:
  std::vector<VariantSpec> variants_;
  std::vector<std::string> type_names_;
  std::vector<int> counts_;
  std::vector<std::int64_t> batches_;
  std::vector<PurchaseOption> purchase_;
  std::vector<CheckpointOption> checkpoints_;
  std::vector<DegradationOption> degradations_;
  std::vector<SdcOption> sdc_;  // empty = implicit {"off"}
};

/// Prices one flat id through the analytic models. Construction copies the
/// space, validates it and resolves every instance-type name once (no
/// validation or string lookups in the hot loop); later edits to the
/// caller's space do not reach the evaluator. Evaluate is a pure function of
/// (id, images) — safe to call concurrently and bitwise-reproducible.
class ArchitectureEvaluator {
 public:
  /// `preemption_rate` is per instance (as EstimateSpotRun);
  /// `restart` is the reprovisioning delay charged per preemption.
  ArchitectureEvaluator(const cloud::CloudSimulator& sim,
                        const ArchitectureSpace& space,
                        RatePerHour preemption_rate = RatePerHour(0.05),
                        Seconds restart = Seconds(60.0));

  /// False when the combination cannot exist (spot purchase of a type with
  /// no spot market); `out` untouched then. Deadline/budget feasibility is
  /// the caller's filter, not this one. Throws CheckError unless
  /// id < Space().Size().
  [[nodiscard]] bool Evaluate(std::uint64_t id, std::int64_t images,
                              ArchMetrics& out) const;

  /// The evaluator's own copy of the space it was built from.
  [[nodiscard]] const ArchitectureSpace& Space() const { return space_; }

 private:
  /// Common tail of Evaluate: applies the row's SDC policy (overhead into
  /// seconds/cost, escapes into delivered accuracy) and writes `out`.
  bool FinishWithSdc(ArchMetrics& m, const SdcOption& sdc,
                     const cloud::InstanceType& type, PurchaseOption purchase,
                     int count, Seconds base_seconds, ArchMetrics& out) const;

  const cloud::CloudSimulator& sim_;
  ArchitectureSpace space_;  // a copy: sizes_ and types_ cannot go stale
  AxisSizes sizes_;          // validated once, at construction
  std::vector<const cloud::InstanceType*> types_;  // space type axis order
  double preemption_rate_per_hour_;
  double restart_s_;
};

/// Knobs of one enumeration run.
struct EnumerationOptions {
  std::int64_t images = 1'000'000;
  Seconds deadline_s{std::numeric_limits<double>::infinity()};
  Usd budget_usd{std::numeric_limits<double>::infinity()};
  std::size_t block = 65536;  // ids evaluated per compaction round
  bool serial = false;        // force serial evaluation (ScopedSerial)
  bool use_top5 = true;       // frontier accuracy objective
  // Detection-aware frontier: rank on delivered accuracy (after undetected
  // corruption) instead of effective accuracy. Identical under "off" rows.
  bool use_delivered = false;
};

/// One surviving configuration.
struct FrontierPoint {
  std::uint64_t id = 0;
  ArchMetrics metrics;
};

/// Result of a streamed enumeration. `peak_candidates` is the largest
/// (frontier ∪ block) row count any compaction saw — the engine's memory
/// high-water mark in rows, gated by bench_ext_enumeration_scale.
struct EnumerationResult {
  std::vector<FrontierPoint> frontier;  // ascending flat id
  std::uint64_t evaluated = 0;          // ids offered to the evaluator
  std::uint64_t feasible = 0;           // rows that met market+deadline+budget
  std::size_t peak_candidates = 0;
};

/// Stream the whole space through the evaluator in blocks, keeping only the
/// running 3-D frontier (minimize time and cost, maximize accuracy).
/// Parallel and serial runs are bitwise-identical: each id writes a
/// preassigned slot and compaction order is the id order.
EnumerationResult EnumerateFrontier(const ArchitectureEvaluator& evaluator,
                                    const EnumerationOptions& options);

}  // namespace ccperf::core
