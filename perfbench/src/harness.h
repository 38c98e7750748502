// Shared scaffolding of the ccperf benchmark: command line, timing and
// sample statistics, the check/operation ledger, committed reference values,
// the in-memory span recorder, the run-environment record and the result
// line. The workloads (infer.cpp, plan.cpp, serve.cpp) drive the library
// only through its public headers; everything here is the benchmark's own.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Parsed command line.
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string reference_dir;  // committed values for kDefaultSeed
  std::string out_dir;        // run artefacts (observed values, spans, env)
};

/// The seed whose outputs are pinned by the files in reference_dir; every
/// other seed is checked by invariants only.
inline constexpr std::uint64_t kDefaultSeed = 2020;

/// Seconds on the monotonic clock since the process-local origin.
double Now();

/// Host steal time so far, seconds summed over all CPUs (/proc/stat).
double HostStealSeconds();

/// CPU seconds the whole process (every thread) has used so far. Time the
/// host steals from a thread is not counted.
double ProcessCpuSeconds();

/// CPU seconds the calling thread has used so far.
double ThreadCpuSeconds();

/// The host-speed probe: runs a fixed piece of the benchmark's own work on
/// the calling thread (std::sort of 2M seeded doubles, then 500K events
/// through a 4096-deep std::priority_queue: 16 MiB of cache- and
/// branch-heavy work like the library's) and records its thread CPU time,
/// which moves with the host's speed and never with the library. Each
/// workload calls it between its operations, at least once per round. On a
/// shared 4-vCPU VM whose busy stretches made `serve` cost 0.5-0.77 s of
/// CPU per replay, the replay cost over the probe's stayed within 1.52-1.76.
void ProbeHost();

/// Median probe CPU time of this run (0 before the first probe).
double ProbeMedianS();

/// Timed samples of one operation, each with the host steal and the
/// process CPU time during it.
struct Samples {
  std::vector<double> values;
  std::vector<double> steal;
  std::vector<double> cpu;  // process CPU seconds (all threads)

  void Add(double v, double steal_s = 0.0, double cpu_s = 0.0) {
    values.push_back(v);
    steal.push_back(steal_s);
    cpu.push_back(cpu_s);
  }
  /// Median process CPU seconds (every thread). The kernel does not count
  /// time the host steals, so this is what the end-to-end metrics report:
  /// on a shared 4-vCPU VM whose neighbours stole up to 33 s from runs of a
  /// minute, five seeds spread 11% on it and 56% on wall time.
  [[nodiscard]] double CpuMedian() const;
  [[nodiscard]] std::size_t Count() const { return values.size(); }
  [[nodiscard]] double Median() const;
  /// Median over the calmer half of the samples: those whose host steal
  /// per second is at most the median over all samples. The host's other
  /// tenants steal whole seconds from some runs and none from others, so
  /// wall-time figures use this.
  [[nodiscard]] double CalmMedian() const;
  /// Samples CalmMedian() keeps.
  [[nodiscard]] std::size_t CalmCount() const;
  /// Highest whole percentile with at least ten samples above it, or -1
  /// when there are too few samples for one.
  [[nodiscard]] int TailPercentile() const;
  [[nodiscard]] double Percentile(int p) const;
};

/// Times one operation, the host steal and the process CPU time during it.
class Stopwatch {
 public:
  Stopwatch()
      : steal_(HostStealSeconds()), cpu_(ProcessCpuSeconds()), start_(Now()) {}
  /// Adds the elapsed seconds, steal and CPU time to `samples`; returns
  /// the seconds.
  double Stop(Samples& samples) const {
    const double seconds = Now() - start_;
    samples.Add(seconds, HostStealSeconds() - steal_,
                ProcessCpuSeconds() - cpu_);
    return seconds;
  }

 private:
  double steal_;
  double cpu_;
  double start_;
};

/// Counts operations attempted and failed, and every check that did not
/// hold. A failed check is printed with its name the moment it fails.
class Ledger {
 public:
  /// One timed operation whose output verification gave `ok`.
  void Operation(bool ok, std::string_view check, const std::string& detail);
  /// A check that is not itself a timed operation (path assertions,
  /// reference values, invariants across operations).
  void Check(bool ok, std::string_view check, const std::string& detail);

  [[nodiscard]] std::int64_t Attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t Failed() const { return failed_; }
  [[nodiscard]] bool Correct() const { return failed_checks_ == 0; }

 private:
  void Fail(std::string_view check, const std::string& detail);

  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t failed_checks_ = 0;
};

/// Values a workload observed on its checked outputs, keyed by check name.
/// At kDefaultSeed they are compared against reference_dir/<workload>.txt;
/// every run writes them to out_dir/observed.txt, in the reference format
/// ("<key> <value> <value> ..." per line).
class Observed {
 public:
  void Set(const std::string& key, std::vector<double> values);
  [[nodiscard]] const std::map<std::string, std::vector<double>>& All() const {
    return values_;
  }
  void Write(const std::string& path) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Largest allowed |observed - expected| for value `index` of `key`.
using ToleranceFn = std::function<double(
    const std::string& key, const std::vector<double>& expected,
    std::size_t index)>;

/// At kDefaultSeed, compares `observed` against the reference file of the
/// workload: every reference key must be observed with the same number of
/// values, each within `tolerance`. Each key is one named check.
void CompareWithReference(const Args& args, const Observed& observed,
                          const ToleranceFn& tolerance, Ledger& ledger);

/// Geometric mean of `values`; 0 when it is empty or holds a value <= 0.
double GeoMean(const std::vector<double>& values);

/// Metrics of the result line, in insertion order.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Prints the calm and plain medians, the highest percentile with ten
  /// samples beyond it, the sample counts and the CPU median of `samples`
  /// (seconds, shown in `unit` after multiplying by `scale`). Not part of
  /// the result line.
  static void PrintTiming(const std::string& name, const Samples& samples,
                          double scale, const std::string& unit);
  [[nodiscard]] std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// The end-to-end metrics. Every workload reports the same names
/// (BENCHMARK.json), each over its own operations; NOTES.md says what each
/// means per workload.
struct EndToEnd {
  /// Geometric mean, over the workload's request-sized operations, of each
  /// one's median process CPU seconds.
  double op_cpu_s = 0.0;
  /// Geometric mean, over its bulk operations, of items per median process
  /// CPU second.
  double items_per_cpu_s = 0.0;
  /// Calm median wall time of the workload's complete set-ups.
  double setup_s = 0.0;
};
/// Adds op_cpu_per_probe (op_cpu_s over the median probe), items_per_probe
/// (items_per_cpu_s times the median probe), setup_s and peak_rss_mb, and
/// prints the unscaled CPU figures.
void AddEndToEnd(const EndToEnd& e, Metrics& metrics);

/// The per-layer metrics of a traced run, again the same names in every
/// workload. Times are per operation, the geometric mean over the
/// workload's operations of each one's median over its traced repetitions.
struct PerLayer {
  /// Inside the library's innermost repeated call: weighted (conv, fc)
  /// layers; evaluate blocks; FaultedServingEngine::Step().
  double kernel_s = 0.0;
  /// Inside the library's other calls of the operation: weightless
  /// layers; SweepParetoFrontier3; Finish(), Checkpoint() and Restore().
  double support_s = 0.0;
  /// The rest of the operation's wall time.
  double self_s = 0.0;
  /// Serial (ScopedSerial) over pooled wall time.
  double pool_speedup = 0.0;
  /// Process CPU seconds over wall seconds while the operations ran.
  double cpu_per_wall = 0.0;
  /// Minor page faults per item (image, configuration, request).
  double minflt_per_item = 0.0;
  /// Calls spanned per operation (layers, blocks and Pareto calls, steps).
  double calls_per_op = 0.0;
  /// Traced over untraced operation time, minus one, in percent.
  double trace_overhead_pct = 0.0;
};
/// Adds the per-layer metrics under the names of BENCHMARK.json.
void AddPerLayer(const PerLayer& p, Metrics& metrics);

/// Prints one ungated figure of the workload (a single operation's value)
/// beside the shared metrics; not part of the result line.
void PrintDetail(const std::string& name, double value,
                 const std::string& unit);

/// In-memory spans and counters, written as Chrome trace-event JSON at
/// exit. A disabled tracer records nothing. Each span name keeps at most
/// kMaxSpansPerName events; later ones are counted as dropped, so a
/// million-step replay does not produce a gigabyte trace file.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpansPerName = 20000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A fresh repetition id: spans of one repetition share it.
  std::uint64_t NewRepetition() { return ++repetitions_; }
  /// Records [start, end) in Now() seconds; returns the span's index to
  /// pass as `parent` of child spans (-1 when disabled or dropped).
  std::int64_t Span(std::string_view name, std::string_view category,
                    double start, double end, std::uint64_t repetition,
                    std::int64_t parent = -1);
  /// Sets the end of a span recorded with end == start before its
  /// children were known.
  void SetEnd(std::int64_t span, double end);
  /// A counter sample at time `at`.
  void Count(std::string_view name, double at, double value,
             std::uint64_t repetition);
  void WriteChromeJson(const std::string& path) const;

 private:
  struct Event {
    std::uint32_t name = 0;
    std::uint32_t category = 0;
    char phase = 'X';
    double start = 0.0;
    double duration = 0.0;  // the value, for counters
    std::uint64_t repetition = 0;
    std::int64_t parent = -1;
  };
  std::uint32_t Intern(std::string_view s);

  bool enabled_ = false;
  std::uint64_t repetitions_ = 0;
  std::vector<std::string> strings_;
  std::unordered_map<std::string, std::uint32_t> string_ids_;
  std::vector<Event> events_;
  std::vector<std::size_t> per_name_;  // indexed by interned name
  std::size_t dropped_ = 0;
};

/// The run-environment record (ungated): CPU model and ISA flags, compiler,
/// pool size, host steal seconds over the run and a fixed compute loop
/// timed at start and end. Printed and written to out_dir/env.json.
class Environment {
 public:
  /// Before the workload's set-up.
  void Begin();
  /// After its last timed operation.
  void End(const std::string& path, std::size_t pool_threads) const;

 private:
  double steal_start_s_ = 0.0;
  double loop_start_s_ = 0.0;
};

/// Peak resident set size of the process so far, MiB.
double PeakRssMib();
/// Minor page faults of the process so far (all threads).
std::int64_t MinorFaults();

/// Prints the result line; returns the exit code (0 iff every check held).
int Finish(const Ledger& ledger, const Metrics& metrics);

/// Writes every sample as "op,index,seconds,steal_s,cpu_s" rows
/// (out_dir/samples.csv), so a run's medians can be recomputed from its raw
/// timings.
void WriteSamples(
    const std::string& path,
    const std::vector<std::pair<std::string, const Samples*>>& ops);

void WriteFile(const std::string& path, const std::string& text);
std::string Fmt(double value, int precision = 6);

/// Each workload reports the end-to-end metrics (trace off) or the
/// per-layer metrics (trace on) and verifies every timed operation.
void RunInfer(const Args& args, Ledger& ledger, Metrics& metrics);
void RunPlan(const Args& args, Ledger& ledger, Metrics& metrics);
void RunServe(const Args& args, Ledger& ledger, Metrics& metrics);

}  // namespace perfbench
