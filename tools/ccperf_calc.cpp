// ccperf_calc: enumerate the full architecture space — pruned/quantized
// variant × instance type × count × batch × on-demand/spot × checkpoint
// policy × degradation policy — through the analytic models and print the
// Pareto-efficient (or top-N by any registered metric) configurations.
//
// The space is streamed in blocks through the sorted-sweep frontier filter
// (core/enumerate.h), so the default ~1.1M-configuration sweep runs in
// seconds with memory O(frontier + block). Everything is seeded and
// deterministic: the same flags always print the same rows.
//
// Examples:
//   ccperf_calc                                  # frontier of the default space
//   ccperf_calc --sort car --top 10              # 10 cheapest-per-accuracy
//   ccperf_calc --no-filter --sort time_h --top 5
//   ccperf_calc --deadline-h 10 --budget-usd 300 --csv frontier.csv
//   ccperf_calc --list-metrics
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cloud/instance_catalog.h"
#include "cloud/model_profile.h"
#include "cloud/sdc.h"
#include "cloud/simulator.h"
#include "common/check.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/accuracy_model.h"
#include "core/enumerate.h"
#include "pruning/variant_generator.h"

namespace {

using namespace ccperf;

struct CliOptions {
  std::string model = "caffenet";
  std::int64_t images = 1'000'000;
  std::size_t variants = 60;
  std::uint64_t seed = 2020;
  int max_count = 14;
  std::vector<std::int64_t> batches = {0, 32, 64, 128, 256, 512};
  double deadline_h = 0.0;   // 0 = unconstrained
  double budget_usd = 0.0;   // 0 = unconstrained
  bool spot = true;
  bool int8 = true;
  double preempt_rate = 0.05;  // per instance-hour
  std::string sort = "car";
  bool filter = true;
  std::size_t top = 20;  // 0 = all
  std::string csv;
  bool terse = false;
  bool serial = false;
  bool sdc = false;
  std::size_t block = 65536;
  bool use_top1 = false;
  bool list_metrics = false;
};

void PrintUsage() {
  std::cout <<
      "ccperf_calc — architecture-space explorer over the ICPP'20 models\n"
      "\n"
      "  --model NAME          caffenet | googlenet (default caffenet)\n"
      "  --images N            workload size in images (default 1000000)\n"
      "  --variants N          random pruning variants (default 60; the\n"
      "                        unpruned baseline is always added)\n"
      "  --seed N              variant-generator seed (default 2020)\n"
      "  --max-count N         fleet sizes 1..N per instance type (default 14)\n"
      "  --batches LIST        comma-separated batch sizes, 0 = auto\n"
      "                        (default 0,32,64,128,256,512)\n"
      "  --deadline-h H        drop configs slower than H hours (default off)\n"
      "  --budget-usd D        drop configs dearer than D dollars (default off)\n"
      "  --[no-]spot           include the spot purchase option (default on)\n"
      "  --[no-]int8           include int8-quantized variants (default on)\n"
      "  --preempt-rate R      spot preemptions per instance-hour (default 0.05)\n"
      "  --sort METRIC         order rows by a registered metric (default car)\n"
      "  --[no-]filter         keep only the Pareto frontier (default on);\n"
      "                        --no-filter streams the top-N by --sort instead\n"
      "  --top N               rows to print, 0 = all survivors (default 20)\n"
      "  --csv PATH            also write the printed rows as CSV\n"
      "  --terse               one line per row: <sort-value> <description>\n"
      "  --serial              force serial evaluation (parallel is bitwise\n"
      "                        identical; this is a determinism aid)\n"
      "  --sdc                 add the silent-data-corruption policy axis\n"
      "                        (off/none/abft/scrub/reexec) and rank rows by\n"
      "                        *delivered* accuracy — the headline accuracy\n"
      "                        discounted by undetected corruption\n"
      "  --block N             ids per evaluation block (default 65536)\n"
      "  --top1                use Top-1 instead of Top-5 as the accuracy axis\n"
      "  --list-metrics        print the metric registry and exit\n"
      "  --help                this text\n";
}

bool ParseInt64(const std::string& value, std::int64_t& out) {
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value.empty()) return false;
  out = static_cast<std::int64_t>(v);
  return true;
}

bool ParseDouble(const std::string& value, double& out) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || value.empty()) return false;
  out = v;
  return true;
}

bool ParseBatchList(const std::string& value, std::vector<std::int64_t>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const std::size_t comma = value.find(',', pos);
    const std::string item = value.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    std::int64_t batch = 0;
    if (!ParseInt64(item, batch) || batch < 0) return false;
    out.push_back(batch);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out.empty();
}

/// Parses argv into `options`; returns false (after printing the problem)
/// on a malformed command line. `exit_ok` signals --help/--list-metrics.
bool ParseArgs(int argc, char** argv, CliOptions& options, bool& exit_ok) {
  exit_ok = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](std::string& out) {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        return false;
      }
      out = argv[++i];
      return true;
    };
    std::string value;
    std::int64_t n = 0;
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      exit_ok = true;
      return true;
    } else if (arg == "--list-metrics") {
      options.list_metrics = true;
    } else if (arg == "--model") {
      if (!next(options.model)) return false;
    } else if (arg == "--images") {
      if (!next(value) || !ParseInt64(value, options.images) ||
          options.images < 1) {
        std::cerr << "--images needs a positive integer\n";
        return false;
      }
    } else if (arg == "--variants") {
      if (!next(value) || !ParseInt64(value, n) || n < 1) {
        std::cerr << "--variants needs a positive integer\n";
        return false;
      }
      options.variants = static_cast<std::size_t>(n);
    } else if (arg == "--seed") {
      if (!next(value) || !ParseInt64(value, n) || n < 0) {
        std::cerr << "--seed needs a non-negative integer\n";
        return false;
      }
      options.seed = static_cast<std::uint64_t>(n);
    } else if (arg == "--max-count") {
      if (!next(value) || !ParseInt64(value, n) || n < 1) {
        std::cerr << "--max-count needs a positive integer\n";
        return false;
      }
      options.max_count = static_cast<int>(n);
    } else if (arg == "--batches") {
      if (!next(value) || !ParseBatchList(value, options.batches)) {
        std::cerr << "--batches needs a comma-separated list of sizes >= 0\n";
        return false;
      }
    } else if (arg == "--deadline-h") {
      if (!next(value) || !ParseDouble(value, options.deadline_h) ||
          options.deadline_h < 0.0) {
        std::cerr << "--deadline-h needs a non-negative number\n";
        return false;
      }
    } else if (arg == "--budget-usd") {
      if (!next(value) || !ParseDouble(value, options.budget_usd) ||
          options.budget_usd < 0.0) {
        std::cerr << "--budget-usd needs a non-negative number\n";
        return false;
      }
    } else if (arg == "--spot") {
      options.spot = true;
    } else if (arg == "--no-spot") {
      options.spot = false;
    } else if (arg == "--int8") {
      options.int8 = true;
    } else if (arg == "--no-int8") {
      options.int8 = false;
    } else if (arg == "--preempt-rate") {
      if (!next(value) || !ParseDouble(value, options.preempt_rate) ||
          options.preempt_rate < 0.0) {
        std::cerr << "--preempt-rate needs a non-negative number\n";
        return false;
      }
    } else if (arg == "--sort") {
      if (!next(options.sort)) return false;
    } else if (arg == "--filter") {
      options.filter = true;
    } else if (arg == "--no-filter") {
      options.filter = false;
    } else if (arg == "--top") {
      if (!next(value) || !ParseInt64(value, n) || n < 0) {
        std::cerr << "--top needs a non-negative integer\n";
        return false;
      }
      options.top = static_cast<std::size_t>(n);
    } else if (arg == "--csv") {
      if (!next(options.csv)) return false;
    } else if (arg == "--terse") {
      options.terse = true;
    } else if (arg == "--serial") {
      options.serial = true;
    } else if (arg == "--sdc") {
      options.sdc = true;
    } else if (arg == "--block") {
      if (!next(value) || !ParseInt64(value, n) || n < 1) {
        std::cerr << "--block needs a positive integer\n";
        return false;
      }
      options.block = static_cast<std::size_t>(n);
    } else if (arg == "--top1") {
      options.use_top1 = true;
    } else {
      std::cerr << "unknown flag '" << arg << "' (try --help)\n";
      return false;
    }
  }
  return true;
}

core::ArchitectureSpace BuildSpace(const cloud::InstanceCatalog& catalog,
                                   const cloud::ModelProfile& profile,
                                   const core::CalibratedAccuracyModel& accuracy,
                                   const CliOptions& options) {
  // Variant axis: the unpruned baseline + seeded random degrees of pruning
  // over the profile's weighted layers (the paper's "60 versions").
  std::vector<pruning::PrunePlan> plans;
  plans.emplace_back();  // no-op plan = the unpruned baseline
  Rng rng(options.seed);
  for (auto& plan : pruning::RandomVariants(profile.layer_order,
                                            options.variants, 0.6, 0.1, rng)) {
    plans.push_back(std::move(plan));
  }

  core::ArchitectureSpace space;
  space.AddVariants(
      core::BuildVariantSpecs(profile, accuracy, plans, options.int8));
  for (const auto& type : catalog.Types()) space.AddInstanceType(type.name);
  std::vector<int> counts;
  for (int c = 1; c <= options.max_count; ++c) counts.push_back(c);
  space.SetCounts(std::move(counts));
  space.SetBatches(options.batches);
  if (options.spot) {
    space.SetPurchaseOptions(
        {core::PurchaseOption::kOnDemand, core::PurchaseOption::kSpot});
  } else {
    space.SetPurchaseOptions({core::PurchaseOption::kOnDemand});
  }
  space.AddCheckpointOption({.name = "none", .enabled = false, .policy = {}});
  space.AddCheckpointOption(
      {.name = "periodic-300",
       .enabled = true,
       .policy = {.trigger = cloud::CheckpointTrigger::kPeriodic,
                  .interval_s = 300.0}});
  space.AddCheckpointOption(
      {.name = "adaptive",
       .enabled = true,
       .policy = {.trigger = cloud::CheckpointTrigger::kAdaptive}});
  space.AddDegradationOption({.name = "none"});
  space.AddDegradationOption({.name = "skip-frames",
                              .recompute_speedup = 2.0,
                              .accuracy_factor = 0.97});
  space.AddDegradationOption({.name = "half-res",
                              .recompute_speedup = 4.0,
                              .accuracy_factor = 0.90});
  if (options.sdc) {
    // Detection-policy axis: "off" keeps the detection-free baseline rows
    // in the same sweep so the frontier shows whether paying for detection
    // Pareto-dominates once accuracy is *delivered* accuracy.
    space.AddSdcOption({.name = "off", .policy = {}});
    space.AddSdcOption(
        {.name = "none", .policy = {.kind = cloud::SdcPolicyKind::kNone}});
    space.AddSdcOption(
        {.name = "abft", .policy = {.kind = cloud::SdcPolicyKind::kAbft}});
    space.AddSdcOption(
        {.name = "scrub", .policy = {.kind = cloud::SdcPolicyKind::kScrub}});
    space.AddSdcOption({.name = "reexec",
                        .policy = {.kind = cloud::SdcPolicyKind::kReexecSample,
                                   .sample_fraction = 0.1}});
  }
  return space;
}

/// Orders rows best-first by `metric`, ties by flat id.
auto RankBy(const core::Metric& metric) {
  return [&metric](const core::FrontierPoint& a, const core::FrontierPoint& b) {
    const double va = metric.extract(a.metrics);
    const double vb = metric.extract(b.metrics);
    if (va != vb) return metric.lower_is_better ? va < vb : va > vb;
    return a.id < b.id;
  };
}

/// --no-filter path: stream the space keeping the best `top` rows by the
/// sort metric (all feasible rows when top == 0 — only sensible on small
/// spaces).
std::vector<core::FrontierPoint> StreamTopN(
    const core::ArchitectureEvaluator& evaluator,
    const core::EnumerationOptions& enum_options, const core::Metric& metric,
    std::size_t top, std::uint64_t& evaluated, std::uint64_t& feasible) {
  std::vector<core::FrontierPoint> rows;
  const auto better = RankBy(metric);
  core::SweepSpace(evaluator, enum_options, [&](const core::SweepBlock& block) {
    evaluated += block.keep.size();
    for (std::size_t i = 0; i < block.keep.size(); ++i) {
      if (!block.keep[i]) continue;
      rows.push_back(core::FrontierPoint{block.first + i, block.rows[i]});
      ++feasible;
    }
    if (top > 0 && rows.size() > 2 * top + 1024) {
      std::sort(rows.begin(), rows.end(), better);
      rows.resize(top);
    }
  });
  std::sort(rows.begin(), rows.end(), better);
  if (top > 0 && rows.size() > top) rows.resize(top);
  return rows;
}

int Run(const CliOptions& options) {
  const core::MetricRegistry& registry = core::MetricRegistry::Standard();
  if (options.list_metrics) {
    Table table({"metric", "direction", "description"});
    for (const auto& m : registry.All()) {
      table.AddRow({m.name, m.lower_is_better ? "min" : "max", m.description});
    }
    std::cout << table.Render();
    return 0;
  }
  const core::Metric& sort_metric = registry.Find(options.sort);

  const bool is_caffenet = options.model == "caffenet";
  if (!is_caffenet && options.model != "googlenet") {
    std::cerr << "unknown model '" << options.model
              << "' (expected caffenet or googlenet)\n";
    return 1;
  }
  const cloud::InstanceCatalog catalog = cloud::InstanceCatalog::AwsEc2();
  const cloud::CloudSimulator sim(catalog);
  const cloud::ModelProfile profile =
      is_caffenet ? cloud::CaffeNetProfile() : cloud::GoogLeNetProfile();
  const core::CalibratedAccuracyModel accuracy =
      is_caffenet ? core::CalibratedAccuracyModel::CaffeNet()
                  : core::CalibratedAccuracyModel::GoogLeNet();

  const core::ArchitectureSpace space =
      BuildSpace(catalog, profile, accuracy, options);
  const core::ArchitectureEvaluator evaluator(
      sim, space, RatePerHour(options.preempt_rate));

  core::EnumerationOptions enum_options;
  enum_options.images = options.images;
  if (options.deadline_h > 0.0) {
    enum_options.deadline_s = ToSeconds(Hours(options.deadline_h));
  }
  if (options.budget_usd > 0.0) {
    enum_options.budget_usd = Usd(options.budget_usd);
  }
  enum_options.block = options.block;
  enum_options.serial = options.serial;
  enum_options.use_top5 = !options.use_top1;
  enum_options.use_delivered = options.sdc;

  Timer timer;
  std::vector<core::FrontierPoint> rows;
  std::uint64_t evaluated = 0;
  std::uint64_t feasible = 0;
  std::size_t peak_candidates = 0;
  if (options.filter) {
    core::EnumerationResult result =
        core::EnumerateFrontier(evaluator, enum_options);
    evaluated = result.evaluated;
    feasible = result.feasible;
    peak_candidates = result.peak_candidates;
    rows = std::move(result.frontier);
    std::sort(rows.begin(), rows.end(), RankBy(sort_metric));
    if (options.top > 0 && rows.size() > options.top) rows.resize(options.top);
  } else {
    rows = StreamTopN(evaluator, enum_options, sort_metric, options.top,
                      evaluated, feasible);
  }
  const double elapsed_s = timer.ElapsedSeconds();

  if (!options.terse) {
    std::cout << "space: " << space.Size() << " configurations ("
              << space.Variants().size() << " variants x "
              << space.TypeNames().size() << " types x "
              << space.Counts().size() << " counts x "
              << space.Batches().size() << " batches x "
              << space.PurchaseOptions().size() << " purchase x "
              << space.CheckpointOptions().size() << " ckpt x "
              << space.DegradationOptions().size() << " degr x "
              << space.SdcOptions().size() << " sdc)\n"
              << "evaluated " << evaluated << " ids, " << feasible
              << " feasible, " << rows.size() << " printed in "
              << Table::Num(elapsed_s, 2) << " s";
    if (options.filter) {
      std::cout << " (peak candidate rows: " << peak_candidates << ")";
    }
    std::cout << "\n\n";
  }

  if (options.terse) {
    for (const auto& row : rows) {
      std::cout << Table::Num(sort_metric.extract(row.metrics), 4) << "\t"
                << space.Describe(row.id) << "\n";
    }
  } else if (options.sdc) {
    Table table({"configuration", "time (h)", "cost ($)", "Top-5 (%)",
                 "dlvd-1 (%)", "escape", "det-ovh", options.sort});
    for (const auto& row : rows) {
      const auto& m = row.metrics;
      table.AddRow({space.Describe(row.id),
                    Table::Num(ToHours(m.seconds).value(), 2),
                    Table::Num(m.cost_usd.value(), 2),
                    Table::Num(m.top5 * 100.0, 1),
                    Table::Num(m.delivered_top1 * 100.0, 1),
                    Table::Num(m.sdc_escape_rate, 4),
                    Table::Num(m.detection_overhead, 3),
                    Table::Num(sort_metric.extract(m), 4)});
    }
    std::cout << table.Render();
  } else {
    Table table({"configuration", "time (h)", "cost ($)", "Top-5 (%)",
                 "Top-1 (%)", "goodput", "risk", options.sort});
    for (const auto& row : rows) {
      const auto& m = row.metrics;
      table.AddRow({space.Describe(row.id),
                    Table::Num(ToHours(m.seconds).value(), 2),
                    Table::Num(m.cost_usd.value(), 2),
                    Table::Num(m.top5 * 100.0, 1),
                    Table::Num(m.top1 * 100.0, 1), Table::Num(m.goodput, 3),
                    Table::Num(m.interruption_risk, 3),
                    Table::Num(sort_metric.extract(m), 4)});
    }
    std::cout << table.Render();
  }

  if (!options.csv.empty()) {
    std::vector<std::string> header = {"id",   "configuration", "seconds",
                                       "cost_usd", "top1",      "top5",
                                       "goodput",  "interruption_risk"};
    if (options.sdc) {
      header.insert(header.end(), {"delivered_top1", "delivered_top5",
                                   "sdc_escape_rate", "detection_overhead"});
    }
    CsvWriter csv(options.csv, header);
    for (const auto& row : rows) {
      const auto& m = row.metrics;
      std::vector<std::string> fields = {
          std::to_string(row.id),      space.Describe(row.id),
          Table::Num(m.seconds.value(), 3), Table::Num(m.cost_usd.value(), 4),
          Table::Num(m.top1, 4),       Table::Num(m.top5, 4),
          Table::Num(m.goodput, 4),    Table::Num(m.interruption_risk, 4)};
      if (options.sdc) {
        fields.insert(fields.end(), {Table::Num(m.delivered_top1, 4),
                                     Table::Num(m.delivered_top5, 4),
                                     Table::Num(m.sdc_escape_rate, 6),
                                     Table::Num(m.detection_overhead, 4)});
      }
      csv.AddRow(fields);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  bool exit_ok = false;
  if (!ParseArgs(argc, argv, options, exit_ok)) return 1;
  if (exit_ok) return 0;
  try {
    return Run(options);
  } catch (const ccperf::CheckError& e) {
    std::cerr << "ccperf_calc: " << e.what() << "\n";
    return 1;
  }
}
