#include "cloud/faults.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"

namespace ccperf::cloud {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Strict double parse: the whole (trimmed) cell must be one finite number.
double ParseDoubleCell(const std::string& cell, const char* what) {
  const auto first = cell.find_first_not_of(" \t\r");
  CCPERF_CHECK(first != std::string::npos, "empty ", what, " cell");
  const auto last = cell.find_last_not_of(" \t\r");
  const std::string body = cell.substr(first, last - first + 1);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(body.c_str(), &end);
  CCPERF_CHECK(end == body.c_str() + body.size() && errno == 0,
               "malformed ", what, " value '", cell, "'");
  CCPERF_CHECK(std::isfinite(value), what, " must be finite, got '", cell,
               "'");
  return value;
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::stringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

std::string Trimmed(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

FaultKind ParseKind(const std::string& cell) {
  const std::string name = Trimmed(cell);
  if (name == "preemption") return FaultKind::kPreemption;
  if (name == "crash") return FaultKind::kCrash;
  if (name == "slowdown") return FaultKind::kSlowdown;
  if (name == "domain-outage") return FaultKind::kDomainOutage;
  if (name == "reclaim-wave") return FaultKind::kReclaimWave;
  if (name == "partition") return FaultKind::kPartition;
  if (name == "silent-corruption") return FaultKind::kSilentCorruption;
  CCPERF_CHECK(false, "unknown fault kind '", cell, "'");
  return FaultKind::kCrash;  // unreachable
}

void ValidateEvent(const FaultEvent& event) {
  CCPERF_CHECK(event.instance >= 0, "fault instance index must be >= 0, got ",
               event.instance);
  CCPERF_CHECK(event.start_s >= 0.0 && std::isfinite(event.start_s),
               "fault start must be finite and >= 0, got ", event.start_s);
  if (!FaultKindIsPermanent(event.kind)) {
    CCPERF_CHECK(event.duration_s > 0.0 && std::isfinite(event.duration_s),
                 FaultKindName(event.kind),
                 " duration must be positive, got ", event.duration_s);
  } else {
    CCPERF_CHECK(event.duration_s >= 0.0, FaultKindName(event.kind),
                 " duration must be >= 0 (it is ignored)");
  }
  if (event.kind == FaultKind::kSlowdown) {
    CCPERF_CHECK(event.slowdown_factor > 1.0 &&
                     std::isfinite(event.slowdown_factor),
                 "slowdown factor must be > 1, got ", event.slowdown_factor);
  } else {
    // The factor is ignored for every other kind, but a NaN/Inf smuggled
    // through a replayed trace must still be rejected: serialization
    // round-trips it and a later consumer might not ignore it.
    CCPERF_CHECK(std::isfinite(event.slowdown_factor),
                 FaultKindName(event.kind),
                 " slowdown factor must be finite, got ",
                 event.slowdown_factor);
  }
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPreemption:
      return "preemption";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kSlowdown:
      return "slowdown";
    case FaultKind::kDomainOutage:
      return "domain-outage";
    case FaultKind::kReclaimWave:
      return "reclaim-wave";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kSilentCorruption:
      return "silent-corruption";
  }
  return "?";
}

bool FaultKindIsPermanent(FaultKind kind) {
  return kind == FaultKind::kPreemption || kind == FaultKind::kReclaimWave;
}

void FaultSchedule::Validate() const {
  double previous = 0.0;
  for (const FaultEvent& event : events) {
    ValidateEvent(event);
    CCPERF_CHECK(event.start_s >= previous,
                 "fault trace must be start-sorted: ", event.start_s,
                 " after ", previous);
    previous = event.start_s;
  }
}

FaultSchedule FaultSchedule::Slice(double t0, double t1) const {
  CCPERF_CHECK(t0 >= 0.0 && t1 > t0, "invalid slice window [", t0, ", ", t1,
               ")");
  FaultSchedule out;
  for (const FaultEvent& event : events) {
    if (event.start_s >= t1) break;
    double end = FaultKindIsPermanent(event.kind)
                     ? kInf
                     : event.start_s + event.duration_s;
    if (end <= t0) continue;
    FaultEvent local = event;
    local.start_s = std::max(event.start_s, t0) - t0;
    if (!FaultKindIsPermanent(event.kind)) {
      // Clip to the window; a crash spanning the boundary keeps the
      // instance down to (at least) the window edge.
      local.duration_s = std::min(end, t1) - (local.start_s + t0);
      if (local.duration_s <= 0.0) continue;
    }
    out.events.push_back(local);
  }
  // Clipping can reorder events that started before the window relative to
  // ones inside it; restore start order (stable to stay deterministic).
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.start_s < b.start_s;
                   });
  return out;
}

FaultSchedule GenerateFaultSchedule(const FaultModel& model, int instances,
                                    double duration_s, Rng& rng) {
  CCPERF_CHECK(instances >= 1, "need at least one instance");
  CCPERF_CHECK(duration_s > 0.0, "duration must be positive");
  CCPERF_CHECK(model.preemption_rate >= 0.0 && model.crash_rate >= 0.0 &&
                   model.slowdown_rate >= 0.0 && model.sdc_rate >= 0.0,
               "fault rates must be >= 0");
  CCPERF_CHECK(model.restart_s > 0.0, "restart delay must be positive");
  CCPERF_CHECK(model.slowdown_s > 0.0 && model.slowdown_factor > 1.0,
               "slowdown window needs positive duration and factor > 1");
  CCPERF_CHECK(model.sdc_window_s > 0.0,
               "silent-corruption residency window must be positive");

  FaultSchedule schedule;
  const auto exponential = [&rng](double rate_per_hour) {
    return -std::log(1.0 - rng.NextDouble()) / (rate_per_hour / 3600.0);
  };
  for (int i = 0; i < instances; ++i) {
    // Spot reclaim: only the first event matters — the instance is gone.
    if (model.preemption_rate > 0.0) {
      const double t = exponential(model.preemption_rate);
      if (t < duration_s) {
        schedule.events.push_back({FaultKind::kPreemption, i, t, 0.0, 1.0});
      }
    }
    if (model.crash_rate > 0.0) {
      for (double t = exponential(model.crash_rate); t < duration_s;
           t += model.restart_s + exponential(model.crash_rate)) {
        schedule.events.push_back(
            {FaultKind::kCrash, i, t, model.restart_s, 1.0});
      }
    }
    if (model.slowdown_rate > 0.0) {
      for (double t = exponential(model.slowdown_rate); t < duration_s;
           t += model.slowdown_s + exponential(model.slowdown_rate)) {
        schedule.events.push_back({FaultKind::kSlowdown, i, t,
                                   model.slowdown_s,
                                   model.slowdown_factor});
      }
    }
    if (model.sdc_rate > 0.0) {
      for (double t = exponential(model.sdc_rate); t < duration_s;
           t += model.sdc_window_s + exponential(model.sdc_rate)) {
        schedule.events.push_back({FaultKind::kSilentCorruption, i, t,
                                   model.sdc_window_s, 1.0});
      }
    }
  }
  std::stable_sort(schedule.events.begin(), schedule.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.start_s != b.start_s) return a.start_s < b.start_s;
                     return a.instance < b.instance;
                   });
  return schedule;
}

FaultSchedule MergeFaultSchedules(const FaultSchedule& a,
                                  const FaultSchedule& b) {
  a.Validate();
  b.Validate();
  FaultSchedule out;
  out.events.reserve(a.events.size() + b.events.size());
  // Two-pointer merge keeps the result start-sorted; <= makes the merge
  // stable with `a` first on ties, so composing the same pair of traces
  // always yields the same byte-identical schedule.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.events.size() && j < b.events.size()) {
    if (a.events[i].start_s <= b.events[j].start_s) {
      out.events.push_back(a.events[i++]);
    } else {
      out.events.push_back(b.events[j++]);
    }
  }
  out.events.insert(out.events.end(),
                    a.events.begin() + static_cast<std::ptrdiff_t>(i),
                    a.events.end());
  out.events.insert(out.events.end(),
                    b.events.begin() + static_cast<std::ptrdiff_t>(j),
                    b.events.end());
  return out;
}

FaultSchedule ParseFaultScheduleCsv(std::istream& in) {
  std::string line;
  CCPERF_CHECK(static_cast<bool>(std::getline(in, line)),
               "fault CSV is empty");
  CCPERF_CHECK(Trimmed(line) == "kind,instance,start_s,duration_s,"
                                "slowdown_factor",
               "unexpected fault CSV header '", line, "'");
  FaultSchedule schedule;
  // Line numbers are 1-based and include the header, so an error message
  // points at the row an editor would show.
  std::size_t line_number = 1;
  std::size_t previous_row = 0;
  double previous_start = 0.0;
  while (std::getline(in, line)) {
    ++line_number;
    if (Trimmed(line).empty()) continue;
    FaultEvent event;
    try {
      const std::vector<std::string> cells = SplitCsvLine(line);
      CCPERF_CHECK(cells.size() == 5, "row needs 5 cells, got ",
                   cells.size());
      event.kind = ParseKind(cells[0]);
      const double instance = ParseDoubleCell(cells[1], "instance");
      CCPERF_CHECK(instance >= 0.0 && instance < 1e9 &&
                       instance == std::floor(instance),
                   "instance index must be a small non-negative integer, "
                   "got '",
                   cells[1], "'");
      event.instance = static_cast<int>(instance);
      event.start_s = ParseDoubleCell(cells[2], "start_s");
      event.duration_s = ParseDoubleCell(cells[3], "duration_s");
      event.slowdown_factor = ParseDoubleCell(cells[4], "slowdown_factor");
      ValidateEvent(event);
      CCPERF_CHECK(event.start_s >= previous_start,
                   "events must be start-sorted: start_s ", event.start_s,
                   " is before ", previous_start, " on line ", previous_row);
    } catch (const CheckError& error) {
      CCPERF_CHECK(false, "fault CSV line ", line_number, " ('",
                   Trimmed(line), "'): ", error.what());
    }
    previous_row = line_number;
    previous_start = event.start_s;
    schedule.events.push_back(event);
  }
  CCPERF_CHECK(!in.bad(), "fault CSV stream failed mid-read (truncated or "
                          "unreadable input)");
  schedule.Validate();
  return schedule;
}

FaultSchedule ParseFaultScheduleCsv(const std::string& text) {
  std::stringstream stream(text);
  return ParseFaultScheduleCsv(stream);
}

std::string FaultScheduleCsv(const FaultSchedule& schedule) {
  std::ostringstream out;
  // max_digits10 so that parsing the CSV reproduces the schedule exactly.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "kind,instance,start_s,duration_s,slowdown_factor\n";
  for (const FaultEvent& event : schedule.events) {
    out << FaultKindName(event.kind) << ',' << event.instance << ','
        << event.start_s << ',' << event.duration_s << ','
        << event.slowdown_factor << '\n';
  }
  return out.str();
}

InstanceTimeline::InstanceTimeline(const FaultSchedule& schedule,
                                   int instance, double horizon_s)
    : horizon_s_(horizon_s) {
  CCPERF_CHECK(horizon_s > 0.0, "horizon must be positive");
  schedule.Validate();
  std::vector<Interval> raw;
  std::vector<Interval> raw_partition;
  std::vector<Interval> raw_corrupt;
  for (const FaultEvent& event : schedule.events) {
    if (event.instance != instance) continue;
    switch (event.kind) {
      case FaultKind::kPreemption:
      case FaultKind::kReclaimWave:
        raw.push_back({event.start_s, kInf});
        break;
      case FaultKind::kCrash:
      case FaultKind::kDomainOutage:
        raw.push_back({event.start_s, event.start_s + event.duration_s});
        break;
      case FaultKind::kPartition:
        // Down like a crash, but the window is also remembered separately:
        // PartitionedAt() lets the serving engine drop (not requeue) work
        // that was in flight when the domain became unreachable.
        raw.push_back({event.start_s, event.start_s + event.duration_s});
        raw_partition.push_back(
            {event.start_s, event.start_s + event.duration_s});
        break;
      case FaultKind::kSlowdown:
        slow_.push_back({event.start_s, event.start_s + event.duration_s,
                         event.slowdown_factor});
        break;
      case FaultKind::kSilentCorruption:
        // NOT a down interval: the instance keeps serving, silently wrong.
        raw_corrupt.push_back(
            {event.start_s, event.start_s + event.duration_s});
        break;
    }
  }
  // Merge overlapping down intervals (already start-sorted).
  const auto merge = [](const std::vector<Interval>& in,
                        std::vector<Interval>& out) {
    for (const Interval& interval : in) {
      if (!out.empty() && interval.start <= out.back().end) {
        out.back().end = std::max(out.back().end, interval.end);
      } else {
        out.push_back(interval);
      }
    }
  };
  merge(raw, down_);
  merge(raw_partition, partition_);
  merge(raw_corrupt, corrupt_);
}

bool InstanceTimeline::UpAt(double t) const {
  for (const Interval& d : down_) {
    if (t < d.start) return true;
    if (t < d.end) return false;
  }
  return true;
}

double InstanceTimeline::NextUpAt(double t) const {
  for (const Interval& d : down_) {
    if (t < d.start) return t;
    if (t < d.end) return d.end;  // +inf for a preemption
  }
  return t;
}

double InstanceTimeline::NextDownAfter(double t) const {
  for (const Interval& d : down_) {
    if (d.start > t) return d.start;
  }
  return kInf;
}

double InstanceTimeline::SlowdownAt(double t) const {
  double factor = 1.0;
  for (const SlowWindow& w : slow_) {
    if (t >= w.start && t < w.end) factor = std::max(factor, w.factor);
  }
  return factor;
}

bool InstanceTimeline::PartitionedAt(double t) const {
  for (const Interval& p : partition_) {
    if (t < p.start) return false;
    if (t < p.end) return true;
  }
  return false;
}

bool InstanceTimeline::CorruptedAt(double t) const {
  for (const Interval& c : corrupt_) {
    if (t < c.start) return false;
    if (t < c.end) return true;
  }
  return false;
}

double InstanceTimeline::DownSeconds() const {
  double total = 0.0;
  for (const Interval& d : down_) {
    const double end = std::min(d.end, horizon_s_);
    if (end > d.start) total += end - std::min(d.start, horizon_s_);
  }
  return total;
}

}  // namespace ccperf::cloud
