// Workload `serve`: what-if serving studies, single-threaded, with no pool
// and no nn. One seeded simulated hour of Poisson arrivals at 70% of the
// capacity of 8x g3.4xlarge (batches of at most 64, a 50 ms wait, a 2 s
// deadline) is replayed three ways: fault-free through SimulateTrace;
// through SimulateFaulted against a seeded schedule of crashes, slowdowns
// and silent corruption, with requeue and the ABFT policy; and that again
// through SimulateFaultedCheckpointed with a snapshot every 300 s. Modules:
// cloud (serving, faults, sdc, checkpoint) and common/snapshot.
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "cloud/checkpoint.h"
#include "cloud/faults.h"
#include "cloud/instance_catalog.h"
#include "cloud/model_profile.h"
#include "cloud/density.h"
#include "cloud/sdc.h"
#include "cloud/serving.h"
#include "cloud/simulator.h"
#include "cloud/variant_perf.h"
#include "common/rng.h"
#include "common/threading.h"
#include "harness.h"

namespace perfbench {

namespace {

namespace cloud = ccperf::cloud;

// Set-ups, each freed before the next: one at a time keeps the peak RSS of
// the ~8 MB traces steady (timing extra ones between replays moved it by up
// to 20%).
constexpr int kSetups = 7;
constexpr int kMinRounds = 3;
constexpr double kHorizonS = 3600.0;
constexpr double kLoad = 0.7;

/// Every input of the three replays.
struct Scenario {
  cloud::CloudSimulator sim{cloud::InstanceCatalog::AwsEc2()};
  cloud::ServingSimulator serving{sim};
  cloud::ResourceConfig fleet;
  cloud::VariantPerf perf;
  cloud::ServingPolicy policy{
      .max_batch = 64, .max_wait_s = 0.05, .deadline_s = 2.0};
  cloud::RetryPolicy retry{.max_retries = 3};
  cloud::SdcPolicy sdc{.kind = cloud::SdcPolicyKind::kAbft};
  cloud::CheckpointPolicy checkpoint{
      .trigger = cloud::CheckpointTrigger::kPeriodic, .interval_s = 300.0};
  std::vector<double> arrivals;
  cloud::FaultSchedule faults;
};

std::unique_ptr<Scenario> SetUp(std::uint64_t seed) {
  auto s = std::make_unique<Scenario>();
  s->fleet.Add("g3.4xlarge", 8);
  const cloud::ModelProfile profile = cloud::CaffeNetProfile();
  s->perf = cloud::ComputeVariantPerf(
      profile, cloud::DensityFromPlan(profile, {}), "nonpruned");
  const double rate =
      kLoad * s->serving.Capacity(s->fleet, s->perf, s->policy);
  ccperf::Rng rng(seed);
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t > kHorizonS) break;
    s->arrivals.push_back(t);
  }
  const cloud::FaultModel model{.crash_rate = 2.0,
                                .restart_s = 120.0,
                                .slowdown_rate = 1.0,
                                .slowdown_s = 60.0,
                                .slowdown_factor = 2.0,
                                .sdc_rate = 0.5,
                                .sdc_window_s = 120.0};
  s->faults = cloud::GenerateFaultSchedule(
      model, s->fleet.TotalInstances(), kHorizonS, rng);
  return s;
}

/// Every ServingReport field, in declaration order; kIntegral marks the
/// counts, which references must match exactly.
std::vector<double> Fields(const cloud::ServingReport& r) {
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  return {d(r.requests),
          r.duration_s,
          r.mean_latency_s,
          r.p50_latency_s,
          r.p95_latency_s,
          r.p99_latency_s,
          r.max_queue,
          r.utilization,
          r.cost_per_hour_usd,
          r.stable ? 1.0 : 0.0,
          d(r.completed),
          d(r.dropped_deadline),
          d(r.dropped_failed),
          d(r.retries),
          d(r.deadline_misses),
          r.goodput_per_s,
          r.deadline_miss_rate,
          r.accuracy_weighted_goodput,
          d(r.hedges),
          d(r.duplicate_completions),
          d(r.discarded_copies),
          r.duplicate_service_s,
          d(r.corrupted_batches),
          d(r.sdc_detected),
          d(r.sdc_escaped),
          d(r.sdc_escaped_requests),
          r.delivered_accuracy_weighted_goodput};
}
constexpr bool kIntegral[] = {true,  false, false, false, false, false, false,
                              false, false, true,  true,  true,  true,  true,
                              true,  false, false, false, true,  true,  true,
                              false, true,  true,  true,  true,  false};

/// Verifies one replay's report: request accounting, and equality with the
/// first report of the same replay kind.
class ReportCheck {
 public:
  explicit ReportCheck(bool exactly_once) : exactly_once_(exactly_once) {}

  bool Verify(const cloud::ServingReport& r, std::string& detail) {
    const std::int64_t accounted =
        r.completed + r.dropped_deadline + r.dropped_failed;
    if (accounted > r.requests || (exactly_once_ && accounted != r.requests)) {
      detail = std::to_string(accounted) + " requests accounted of " +
               std::to_string(r.requests);
      return false;
    }
    if (!first_) {
      first_ = r;
      return true;
    }
    if (Fields(r) != Fields(*first_)) {
      detail = "report differs from the first replay";
      return false;
    }
    return true;
  }
  /// The first verified report (a default report before any).
  [[nodiscard]] cloud::ServingReport First() const {
    return first_.value_or(cloud::ServingReport{});
  }

 private:
  bool exactly_once_;
  std::optional<cloud::ServingReport> first_;
};

cloud::FaultedServingEngine MakeEngine(const Scenario& s,
                                       const cloud::FaultSchedule& faults) {
  return cloud::FaultedServingEngine(
      s.serving, s.fleet, s.perf, s.arrivals, kHorizonS, s.policy, s.retry,
      faults, cloud::InflightPolicy::kRequeue, 1.0, {}, s.sdc);
}

/// Per-layer figures of the traced run. The traced replays are the three
/// replay kinds stepped through FaultedServingEngine from public calls
/// (SimulateTrace has no inner calls to span, so the fault-free hour runs
/// through the engine with an empty fault schedule).
struct EngineStats {
  Samples engine_wall;   // fault-free hour through the engine, untraced
  Samples traced_wall[3];
  Samples kernel[3];     // inside Step()
  Samples support[3];    // inside Finish(), Checkpoint() and Restore()
  Samples self[3];       // the rest of the replay
  double calls[3] = {};  // spanned calls per replay
  Samples step;          // mean seconds inside one Step() of the faulted hour
  Samples checkpoint;    // each Checkpoint()
  Samples restore;       // each Restore()
  std::int64_t steps = 0;
  std::size_t snapshot_bytes = 0;
  int snapshots = 0;
};

/// One replay through FaultedServingEngine from public calls.
struct Replay {
  cloud::ServingReport report;
  double seconds = 0.0;          // construction to Finish()
  double step_seconds = 0.0;     // inside Step()
  double support_seconds = 0.0;  // inside Finish(), Checkpoint(), Restore()
  std::int64_t steps = 0;
  int snapshots = 0;
};

/// Replays the hour against `faults` with a span for the engine's
/// construction, each Step(), each Checkpoint() at a crossed instant (as
/// SimulateFaultedCheckpointed takes them), Restore() of `restore_from`
/// when given, and Finish().
Replay TracedReplay(const Scenario& s, const cloud::FaultSchedule& faults,
                    const std::string& name,
                    const std::vector<double>& instants,
                    const std::string* restore_from, Tracer& tracer,
                    EngineStats& stats, std::string* latest) {
  Replay r;
  const std::string step_name = name + ".step";
  const std::uint64_t rep = tracer.NewRepetition();
  const double start = Now();
  const std::int64_t parent = tracer.Span(name, "replay", start, start, rep);
  cloud::FaultedServingEngine engine = MakeEngine(s, faults);
  double t = Now();
  tracer.Span("construct", "engine", start, t, rep, parent);
  if (restore_from != nullptr) {
    engine.Restore(*restore_from);
    const double end = Now();
    tracer.Span("restore", "snapshot", t, end, rep, parent);
    stats.restore.Add(end - t);
    r.support_seconds += end - t;
  }
  std::size_t next = 0;
  while (!engine.Done()) {
    t = Now();
    engine.Step();
    const double end = Now();
    tracer.Span(step_name, "engine", t, end, rep, parent);
    r.step_seconds += end - t;
    ++r.steps;
    while (next < instants.size() && engine.Watermark() >= instants[next]) {
      t = Now();
      *latest = engine.Checkpoint();
      const double c_end = Now();
      tracer.Span("checkpoint", "snapshot", t, c_end, rep, parent);
      stats.checkpoint.Add(c_end - t);
      r.support_seconds += c_end - t;
      ++next;
    }
  }
  t = Now();
  r.report = engine.Finish();
  const double end = Now();
  r.support_seconds += end - t;
  tracer.Span("finish", "engine", t, end, rep, parent);
  tracer.SetEnd(parent, end);
  tracer.Count(name + ".steps", end, static_cast<double>(r.steps), rep);
  tracer.Count(name + ".retries", end, static_cast<double>(r.report.retries),
               rep);
  r.seconds = end - start;
  r.snapshots = static_cast<int>(next);
  return r;
}

/// Adds one traced replay of `kind` (0 fault-free, 1 faulted,
/// 2 checkpointed) to the per-layer figures.
void AddTraced(const Replay& r, int kind, EngineStats& stats) {
  stats.traced_wall[kind].Add(r.seconds);
  stats.kernel[kind].Add(r.step_seconds);
  stats.support[kind].Add(r.support_seconds);
  stats.self[kind].Add(r.seconds - r.step_seconds - r.support_seconds);
  stats.calls[kind] = static_cast<double>(r.steps + r.snapshots);
}

/// One traced round: the fault-free hour through the engine untraced, then
/// the three replay kinds with spans, then a restore of the latest snapshot
/// finished to the end. The engine's fault-free report must count every
/// request once; the others must equal SimulateFaulted's report.
void TracedRound(const Scenario& s, const std::vector<double>& instants,
                 Tracer& tracer, EngineStats& stats,
                 const ReportCheck& faulted_check, Ledger& ledger) {
  const auto count_all = [&](const cloud::ServingReport& report,
                             const std::string& check) {
    const std::int64_t accounted =
        report.completed + report.dropped_deadline + report.dropped_failed;
    const auto requests = static_cast<std::int64_t>(s.arrivals.size());
    ledger.Operation(report.requests == requests && accounted == requests,
                     check, "requests miscounted");
  };
  {
    const double start = Now();
    cloud::FaultedServingEngine engine = MakeEngine(s, {});
    while (!engine.Done()) engine.Step();
    const cloud::ServingReport report = engine.Finish();
    stats.engine_wall.Add(Now() - start);
    count_all(report, "serve.engine_fault_free");
  }
  const Replay fault_free = TracedReplay(s, {}, "serve.fault_free", {},
                                         nullptr, tracer, stats, nullptr);
  count_all(fault_free.report, "serve.fault_free.traced");
  AddTraced(fault_free, 0, stats);

  const auto verify = [&](const Replay& r, const std::string& check) {
    const bool same = Fields(r.report) == Fields(faulted_check.First());
    ledger.Operation(same, check, "report differs from SimulateFaulted");
  };
  const Replay faulted = TracedReplay(s, s.faults, "serve.faulted", {},
                                      nullptr, tracer, stats, nullptr);
  verify(faulted, "serve.faulted.traced");
  AddTraced(faulted, 1, stats);
  stats.step.Add(faulted.step_seconds / static_cast<double>(faulted.steps));
  stats.steps = faulted.steps;

  std::string latest;
  const Replay checkpointed =
      TracedReplay(s, s.faults, "serve.checkpointed", instants, nullptr,
                   tracer, stats, &latest);
  verify(checkpointed, "serve.checkpointed.traced");
  AddTraced(checkpointed, 2, stats);
  stats.snapshots = checkpointed.snapshots;
  stats.snapshot_bytes = latest.size();

  const Replay restored = TracedReplay(s, s.faults, "serve.restored", {},
                                       &latest, tracer, stats, nullptr);
  verify(restored, "serve.restored");
}

}  // namespace

void RunServe(const Args& args, Ledger& ledger, Metrics& metrics) {
  Samples setup;
  std::unique_ptr<Scenario> scenario;
  for (int i = 0; i < kSetups; ++i) {
    scenario.reset();
    const Stopwatch watch;
    scenario = SetUp(args.seed);
    watch.Stop(setup);
  }
  const Scenario& s = *scenario;
  const std::vector<double> instants = cloud::CheckpointInstants(
      s.checkpoint, s.faults, kHorizonS, s.fleet.TotalInstances());

  ReportCheck checks[3] = {ReportCheck(true), ReportCheck(false),
                           ReportCheck(false)};
  const char* names[3] = {"fault_free", "faulted", "checkpointed"};
  Samples wall[3];
  std::int64_t minflt = 0;
  double replayed = 0.0;
  cloud::CheckpointStats checkpoint_stats;
  const auto replay = [&](int kind, Samples& into) {
    const std::int64_t faults = MinorFaults();
    const Stopwatch watch;
    cloud::ServingReport r;
    if (kind == 0) {
      r = s.serving.SimulateTrace(s.fleet, s.perf, s.arrivals, kHorizonS,
                                  s.policy);
    } else if (kind == 1) {
      r = s.serving.SimulateFaulted(s.fleet, s.perf, s.arrivals, kHorizonS,
                                    s.policy, s.retry, s.faults,
                                    cloud::InflightPolicy::kRequeue, 1.0, {},
                                    s.sdc);
    } else {
      r = s.serving.SimulateFaultedCheckpointed(
          s.fleet, s.perf, s.arrivals, kHorizonS, s.policy, s.retry, s.faults,
          s.checkpoint, &checkpoint_stats, cloud::InflightPolicy::kRequeue,
          1.0, {}, s.sdc);
    }
    watch.Stop(into);
    minflt += MinorFaults() - faults;
    replayed += static_cast<double>(s.arrivals.size());
    std::string detail;
    bool ok = checks[kind].Verify(r, detail);
    if (ok && kind == 2 && Fields(r) != Fields(checks[1].First())) {
      ok = false;
      detail = "checkpointed report differs from the uncheckpointed one";
    }
    if (ok && kind == 2 &&
        checkpoint_stats.snapshots != static_cast<int>(instants.size())) {
      ok = false;
      detail = std::to_string(checkpoint_stats.snapshots) + " snapshots, " +
               std::to_string(instants.size()) + " instants";
    }
    ledger.Operation(ok, std::string("serve.") + names[kind], detail);
  };

  Tracer tracer(args.trace);
  EngineStats engine;
  const double deadline = Now() + args.seconds;
  for (int kind = 0; kind < 3; ++kind) {
    Samples warm_up;
    replay(kind, warm_up);
  }
  ProbeHost();
  minflt = 0;
  replayed = 0.0;
  const double loop_start = Now();
  const double loop_cpu_start = ProcessCpuSeconds();
  for (int round = 0; round < kMinRounds || Now() < deadline; ++round) {
    ProbeHost();
    for (int kind = 0; kind < 3; ++kind) replay(kind, wall[kind]);
    if (args.trace) {
      TracedRound(s, instants, tracer, engine, checks[1], ledger);
    }
  }
  const double cpu_per_wall =
      (ProcessCpuSeconds() - loop_cpu_start) / (Now() - loop_start);
  WriteSamples(args.out_dir + "/samples.csv",
               {{"setup", &setup},
                {names[0], &wall[0]},
                {names[1], &wall[1]},
                {names[2], &wall[2]}});

  Observed observed;
  observed.Set("fault_free.report", Fields(checks[0].First()));
  observed.Set("faulted.report", Fields(checks[1].First()));
  observed.Set("checkpointed.snapshots",
               {static_cast<double>(checkpoint_stats.snapshots)});
  observed.Write(args.out_dir + "/observed.txt");
  CompareWithReference(
      args, observed,
      [](const std::string& key, const std::vector<double>& expected,
         std::size_t index) {
        const bool exact = key.find(".report") == std::string::npos ||
                           kIntegral[index];
        return exact ? 0.0 : 1e-9 * std::fabs(expected[index]);
      },
      ledger);

  const auto requests = static_cast<double>(s.arrivals.size());
  if (!args.trace) {
    // Per operation: a replayed hour; items: requests, over the same
    // replays.
    const char* detail[3] = {"serve_requests_per_s",
                             "serve_faulted_requests_per_s",
                             "serve_checkpointed_requests_per_s"};
    std::vector<double> replay_cpu_s;
    std::vector<double> requests_per_cpu_s;
    for (int kind = 0; kind < 3; ++kind) {
      Metrics::PrintTiming(std::string(names[kind]) + " replay", wall[kind],
                           1e3, "ms");
      replay_cpu_s.push_back(wall[kind].CpuMedian());
      requests_per_cpu_s.push_back(requests / replay_cpu_s.back());
      PrintDetail(detail[kind], requests / wall[kind].CalmMedian(), "1/s");
    }
    Metrics::PrintTiming("set-up", setup, 1e3, "ms");
    AddEndToEnd({.op_cpu_s = GeoMean(replay_cpu_s),
                 .items_per_cpu_s = GeoMean(requests_per_cpu_s),
                 .setup_s = setup.CalmMedian()},
                metrics);
    return;
  }

  // Pool speed-up: serve runs on the calling thread only, so this stays
  // near 1 until a change parallelises a replay.
  std::vector<double> speedup;
  for (int kind = 0; kind < 3; ++kind) {
    Samples serial;
    {
      const ccperf::ScopedSerial scoped;
      replay(kind, serial);
    }
    speedup.push_back(serial.Median() / wall[kind].CalmMedian());
  }
  std::vector<double> kernel, support, self;
  double calls = 0.0;
  for (int kind = 0; kind < 3; ++kind) {
    kernel.push_back(engine.kernel[kind].Median());
    support.push_back(engine.support[kind].Median());
    self.push_back(engine.self[kind].Median());
    calls += engine.calls[kind] / 3.0;
  }
  const double traced_sum = engine.traced_wall[0].Median() +
                            engine.traced_wall[1].Median() +
                            engine.traced_wall[2].Median();
  const double untraced_sum =
      engine.engine_wall.Median() + wall[1].Median() + wall[2].Median();

  const cloud::ServingReport faulted = checks[1].First();
  PrintDetail("cloud.trace_ns_per_request",
              wall[0].CalmMedian() / requests * 1e9, "ns");
  PrintDetail("cloud.engine_ns_per_request",
              engine.engine_wall.Median() / requests * 1e9, "ns");
  PrintDetail("cloud.faulted_ns_per_request",
              wall[1].CalmMedian() / requests * 1e9, "ns");
  PrintDetail("cloud.engine_ns_per_step", engine.step.Median() * 1e9, "ns");
  PrintDetail("cloud.steps_per_request",
              static_cast<double>(engine.steps) / requests, "ratio");
  PrintDetail("cloud.checkpoint_ms", engine.checkpoint.Median() * 1e3, "ms");
  PrintDetail("cloud.restore_ms", engine.restore.Median() * 1e3, "ms");
  PrintDetail("cloud.snapshot_mib",
              static_cast<double>(engine.snapshot_bytes) / (1024.0 * 1024.0),
              "MiB");
  PrintDetail("cloud.snapshots", engine.snapshots, "count");
  PrintDetail("cloud.fault_events",
              static_cast<double>(s.faults.events.size()), "count");
  PrintDetail("cloud.retry_ratio",
              static_cast<double>(faulted.retries) / requests, "ratio");
  PrintDetail("cloud.drop_ratio",
              static_cast<double>(faulted.dropped_deadline +
                                  faulted.dropped_failed) /
                  requests,
              "ratio");
  AddPerLayer({.kernel_s = GeoMean(kernel),
               .support_s = GeoMean(support),
               .self_s = GeoMean(self),
               .pool_speedup = GeoMean(speedup),
               .cpu_per_wall = cpu_per_wall,
               .minflt_per_item = static_cast<double>(minflt) / replayed,
               .calls_per_op = calls,
               .trace_overhead_pct = (traced_sum / untraced_sum - 1.0) * 100.0},
              metrics);
  tracer.WriteChromeJson(args.out_dir + "/trace.json");
  std::cout << "  spans: " << args.out_dir << "/trace.json\n";
}

}  // namespace perfbench
