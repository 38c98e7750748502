#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <queue>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>


namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kOrigin =
    std::chrono::steady_clock::now();

/// Every ProbeHost() time of the process.
Samples& ProbeSamples() {
  static Samples probes;
  return probes;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The samples whose steal per second is at most the median steal rate.
std::vector<double> CalmValues(const Samples& s) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < s.values.size(); ++i) {
    rates.push_back(s.steal[i] / s.values[i]);
  }
  const double limit = MedianOf(rates);
  std::vector<double> calm;
  for (std::size_t i = 0; i < s.values.size(); ++i) {
    if (rates[i] <= limit) calm.push_back(s.values[i]);
  }
  return calm;
}

/// A fixed single-threaded integer/float loop owned by the benchmark: its
/// time moves only with the host, never with the library. Median of 3.
double ComputeLoopSeconds() {
  Samples s;
  for (int rep = 0; rep < 3; ++rep) {
    const double start = Now();
    std::uint64_t x = 88172645463325252ULL;
    double acc = 0.0;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x & 0xffffU) * 1e-9;
    }
    if (acc < 0.0) std::cerr << acc;  // keeps the loop observable
    s.Add(Now() - start);
  }
  return s.Median();
}

std::string CpuInfoField(const std::string& field) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    return line.substr(std::min(line.size(), colon + 2));
  }
  return "unknown";
}

std::string IsaFlags() {
  static const std::set<std::string> kIsa = {
      "sse4_2",   "avx",         "avx2",        "fma",       "f16c",
      "avx512f",  "avx512bw",    "avx512vl",    "avx512dq",  "avx512_vnni",
      "avx_vnni", "avx512_bf16", "amx_tile",    "amx_int8"};
  std::istringstream flags(CpuInfoField("flags"));
  std::string flag;
  std::string out;
  while (flags >> flag) {
    if (kIsa.count(flag) == 0) continue;
    if (!out.empty()) out += ' ';
    out += flag;
  }
  return out;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

double HostStealSeconds() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return 0.0;
  double fields[8] = {};
  for (double& f : fields) in >> f;
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kOrigin)
      .count();
}

double Samples::Median() const { return MedianOf(values); }

double Samples::CalmMedian() const { return MedianOf(CalmValues(*this)); }

double Samples::CpuMedian() const { return MedianOf(cpu); }

std::size_t Samples::CalmCount() const { return CalmValues(*this).size(); }

int Samples::TailPercentile() const {
  const auto n = static_cast<int>(values.size());
  if (n < 11) return -1;
  return 100 * (n - 10) / n;
}

double Samples::Percentile(int p) const {
  const std::vector<double> v = Sorted(values);
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void Ledger::Operation(bool ok, std::string_view check,
                       const std::string& detail) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  Fail(check, detail);
}

void Ledger::Check(bool ok, std::string_view check,
                   const std::string& detail) {
  if (!ok) Fail(check, detail);
}

void Ledger::Fail(std::string_view check, const std::string& detail) {
  ++failed_checks_;
  // Only the first few of a repeated failure are spelled out.
  if (failed_checks_ <= 20) {
    std::cout << "check failed: " << check << ": " << detail << std::endl;
  }
}

void Observed::Set(const std::string& key, std::vector<double> values) {
  values_[key] = std::move(values);
}

void Observed::Write(const std::string& path) const {
  std::ostringstream out;
  for (const auto& [key, values] : values_) {
    out << key;
    for (const double v : values) out << ' ' << JsonNumber(v);
    out << '\n';
  }
  WriteFile(path, out.str());
}

void CompareWithReference(const Args& args, const Observed& observed,
                          const ToleranceFn& tolerance, Ledger& ledger) {
  if (args.seed != kDefaultSeed) return;
  const std::string path = args.reference_dir + "/" + args.workload + ".txt";
  std::ifstream in(path);
  if (!in) {
    ledger.Check(false, "reference." + args.workload, "cannot read " + path);
    return;
  }
  std::string line;
  std::size_t keys = 0;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;
    ++keys;
    std::vector<double> expected;
    double v = 0.0;
    while (fields >> v) expected.push_back(v);
    const std::string check = "reference." + key;
    const auto it = observed.All().find(key);
    if (it == observed.All().end()) {
      ledger.Check(false, check, "not observed in this run");
      continue;
    }
    const std::vector<double>& got = it->second;
    if (got.size() != expected.size()) {
      ledger.Check(false, check,
                   "expected " + std::to_string(expected.size()) +
                       " values, observed " + std::to_string(got.size()));
      continue;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      const double tol = tolerance(key, expected, i);
      if (std::fabs(got[i] - expected[i]) <= tol) continue;
      ledger.Check(false, check,
                   "value " + std::to_string(i) + ": expected " +
                       JsonNumber(expected[i]) + ", observed " +
                       JsonNumber(got[i]) + " (tolerance " + JsonNumber(tol) +
                       ")");
      break;
    }
  }
  ledger.Check(keys > 0, "reference." + args.workload, path + " is empty");
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void ProbeHost() {
  std::vector<double> keys(std::size_t{1} << 21);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (double& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = static_cast<double>(x >> 11);
  }
  const double start = ThreadCpuSeconds();
  std::sort(keys.begin(), keys.end());
  std::priority_queue<double, std::vector<double>, std::greater<>> events;
  double t = 0.0;
  for (std::size_t i = 0; i < 500000; ++i) {
    events.push(t + keys[(i * 2654435761U) % keys.size()] * 1e-12);
    if (events.size() > 4096) {
      t = events.top();
      events.pop();
    }
  }
  ProbeSamples().Add(ThreadCpuSeconds() - start);
  if (t < 0.0) std::cerr << t;  // keeps the work observable
}

double ProbeMedianS() { return ProbeSamples().Median(); }

void AddEndToEnd(const EndToEnd& e, Metrics& metrics) {
  const double probe_s = ProbeMedianS();
  PrintDetail("op_cpu_ms", e.op_cpu_s * 1e3, "ms");
  PrintDetail("items_per_cpu_s", e.items_per_cpu_s, "1/s");
  PrintDetail("probe_cpu_ms (n=" + std::to_string(ProbeSamples().Count()) + ")",
              probe_s * 1e3, "ms");
  metrics.Add("op_cpu_per_probe", e.op_cpu_s / probe_s, "x");
  metrics.Add("items_per_probe", e.items_per_cpu_s * probe_s, "items/probe");
  metrics.Add("setup_s", e.setup_s, "s");
  metrics.Add("peak_rss_mb", PeakRssMib(), "MiB");
}

void AddPerLayer(const PerLayer& p, Metrics& metrics) {
  metrics.Add("kernel_ms", p.kernel_s * 1e3, "ms");
  metrics.Add("support_ms", p.support_s * 1e3, "ms");
  metrics.Add("self_ms", p.self_s * 1e3, "ms");
  metrics.Add("pool_speedup", p.pool_speedup, "x");
  metrics.Add("cpu_per_wall", p.cpu_per_wall, "x");
  metrics.Add("minflt_per_item", p.minflt_per_item, "count");
  metrics.Add("calls_per_op", p.calls_per_op, "count");
  metrics.Add("trace_overhead_pct", p.trace_overhead_pct, "%");
}

void PrintDetail(const std::string& name, double value,
                 const std::string& unit) {
  std::cout << "  " << name << " = " << Fmt(value) << " " << unit << "\n";
}

void Metrics::Add(const std::string& name, double value,
                  const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

void Metrics::PrintTiming(const std::string& name, const Samples& samples,
                          double scale, const std::string& unit) {
  std::cout << "  " << name << ": calm median "
            << Fmt(samples.CalmMedian() * scale) << " " << unit << " (n="
            << samples.CalmCount() << "), median "
            << Fmt(samples.Median() * scale) << " " << unit;
  const int p = samples.TailPercentile();
  if (p > 0) {
    std::cout << ", p" << p << " " << Fmt(samples.Percentile(p) * scale) << " "
              << unit;
  }
  std::cout << " (n=" << samples.Count() << "), cpu median "
            << Fmt(samples.CpuMedian() * scale) << " " << unit << "\n";
}

std::string Metrics::Json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const auto& [name, value_unit] = items_[i];
    if (i > 0) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(value_unit.first) +
           ", \"unit\": " + JsonString(value_unit.second) + "}";
  }
  return out + "}";
}

std::uint32_t Tracer::Intern(std::string_view s) {
  const auto [it, inserted] = string_ids_.try_emplace(
      std::string(s), static_cast<std::uint32_t>(strings_.size()));
  if (inserted) {
    strings_.emplace_back(s);
    per_name_.push_back(0);
  }
  return it->second;
}

std::int64_t Tracer::Span(std::string_view name, std::string_view category,
                          double start, double end, std::uint64_t repetition,
                          std::int64_t parent) {
  if (!enabled_) return -1;
  const std::uint32_t id = Intern(name);
  if (per_name_[id] >= kMaxSpansPerName) {
    ++dropped_;
    return -1;
  }
  ++per_name_[id];
  events_.push_back(Event{id, Intern(category), 'X', start, end - start,
                          repetition, parent});
  return static_cast<std::int64_t>(events_.size()) - 1;
}

void Tracer::SetEnd(std::int64_t span, double end) {
  if (span < 0) return;
  Event& e = events_[static_cast<std::size_t>(span)];
  e.duration = end - e.start;
}

void Tracer::Count(std::string_view name, double at, double value,
                   std::uint64_t repetition) {
  if (!enabled_) return;
  const std::uint32_t id = Intern(name);
  if (per_name_[id] >= kMaxSpansPerName) {
    ++dropped_;
    return;
  }
  ++per_name_[id];
  events_.push_back(Event{id, Intern("count"), 'C', at, value, repetition, -1});
}

void Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_events\": "
      << dropped_ << "},\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (i > 0) out << ",\n";
    out << "{\"name\": " << JsonString(strings_[e.name])
        << ", \"cat\": " << JsonString(strings_[e.category])
        << ", \"ph\": \"" << e.phase << "\", \"ts\": "
        << JsonNumber(e.start * 1e6) << ", \"pid\": 1, \"tid\": 1";
    if (e.phase == 'X') {
      out << ", \"dur\": " << JsonNumber(e.duration * 1e6)
          << ", \"args\": {\"span\": " << i << ", \"parent\": " << e.parent
          << ", \"repetition\": " << e.repetition << "}}";
    } else {
      out << ", \"args\": {\"value\": " << JsonNumber(e.duration) << "}}";
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

void Environment::Begin() {
  steal_start_s_ = HostStealSeconds();
  loop_start_s_ = ComputeLoopSeconds();
}

void Environment::End(const std::string& path,
                      std::size_t pool_threads) const {
  const double loop_end_s = ComputeLoopSeconds();
  const double steal_s = HostStealSeconds() - steal_start_s_;
  const std::string cpu = CpuInfoField("model name");
  const std::string isa = IsaFlags();
  std::cout << "environment: cpu \"" << cpu << "\", isa [" << isa << "], "
            << Compiler() << ", pool " << pool_threads << " threads, steal "
            << Fmt(steal_s) << " s, fixed loop " << Fmt(loop_start_s_ * 1e3)
            << " ms at start / " << Fmt(loop_end_s * 1e3) << " ms at end\n";
  WriteFile(path,
            "{\"cpu\": " + JsonString(cpu) + ", \"isa\": " + JsonString(isa) +
                ", \"compiler\": " + JsonString(Compiler()) +
                ", \"pool_threads\": " + std::to_string(pool_threads) +
                ", \"host_steal_s\": " + JsonNumber(steal_s) +
                ", \"fixed_loop_start_s\": " + JsonNumber(loop_start_s_) +
                ", \"fixed_loop_end_s\": " + JsonNumber(loop_end_s) +
                ", \"probe_median_s\": " + JsonNumber(ProbeMedianS()) + "}\n");
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

int Finish(const Ledger& ledger, const Metrics& metrics) {
  const bool ok = ledger.Correct() && ledger.Failed() == 0;
  std::cout << "{\"correct\": " << (ok ? "true" : "false")
            << ", \"attempted\": " << ledger.Attempted()
            << ", \"failed\": " << ledger.Failed()
            << ", \"metrics\": " << metrics.Json() << "}" << std::endl;
  return ok ? 0 : 1;
}

void WriteSamples(
    const std::string& path,
    const std::vector<std::pair<std::string, const Samples*>>& ops) {
  std::ostringstream out;
  out << "op,index,seconds,steal_s,cpu_s\n";
  for (const auto& [op, samples] : ops) {
    for (std::size_t i = 0; i < samples->values.size(); ++i) {
      out << op << ',' << i << ',' << JsonNumber(samples->values[i]) << ','
          << JsonNumber(samples->steal[i]) << ','
          << JsonNumber(samples->cpu[i]) << '\n';
    }
  }
  WriteFile(path, out.str());
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string Fmt(double value, int precision) {
  std::ostringstream out;
  out.precision(precision);
  out << value;
  return out.str();
}

}  // namespace perfbench
