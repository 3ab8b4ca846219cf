#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>

#include "obs/metrics.h"

namespace ricd::perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + lo, values.end());
  const double lo_value = values[lo];
  if (hi == lo) return lo_value;
  const double hi_value =
      *std::min_element(values.begin() + lo + 1, values.end());
  return lo_value + (hi_value - lo_value) * (pos - static_cast<double>(lo));
}

double WindowedQuantile(const std::vector<double>& at,
                        const std::vector<double>& values, double window_s,
                        double q) {
  std::vector<double> per_window;
  std::vector<double> window;
  double window_end = at.empty() ? 0 : at.front() + window_s;
  for (size_t i = 0; i <= values.size(); ++i) {
    if (i == values.size() || at[i] >= window_end) {
      if (!window.empty()) per_window.push_back(Quantile(window, q));
      window.clear();
      if (i == values.size()) break;
      while (at[i] >= window_end) window_end += window_s;
    }
    window.push_back(values[i]);
  }
  return Median(per_window);
}

Tracer::Span::Span(Tracer* tracer, const char* name)
    : tracer_(tracer), start_(Clock::now()) {
  if (!tracer_->enabled_) return;
  saved_parent_ = tracer_->current_;
  index_ = static_cast<int>(tracer_->records_.size());
  tracer_->records_.push_back(
      {name, SecondsBetween(tracer_->origin_, start_), 0, saved_parent_});
  tracer_->current_ = index_;
}

double Tracer::Span::End() {
  if (seconds_ >= 0) return seconds_;
  const Clock::time_point end = Clock::now();
  seconds_ = SecondsBetween(start_, end);
  if (index_ >= 0) {
    tracer_->records_[static_cast<size_t>(index_)].end =
        SecondsBetween(tracer_->origin_, end);
    tracer_->current_ = saved_parent_;
  }
  return seconds_;
}

double Tracer::Total(const std::string& name, double since) const {
  double total = 0;
  for (const Record& r : records_) {
    if (r.name == name && r.start >= since) total += r.end - r.start;
  }
  return total;
}

Status Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write spans to " + path);
  out << "[\n";
  char line[512];
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(line, sizeof(line),
                  "  {\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                  "\"parent\": %d}%s\n",
                  r.name.c_str(), r.start, r.end, r.parent,
                  i + 1 < records_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  out.close();
  if (!out) return Status::IoError("short write to " + path);
  return Status::Ok();
}

void Report::Check(const Status& status, const char* what) {
  Op(status.ok());
  if (!status.ok()) Note(std::string("check failed: ") + what + ": " +
                         status.ToString());
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double HostStealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!stat || !std::getline(stat, line)) return 0;
  std::istringstream fields(line);
  std::string cpu;
  fields >> cpu;
  if (cpu != "cpu") return 0;
  // user nice system idle iowait irq softirq steal
  uint64_t value = 0;
  for (int column = 0; column < 8; ++column) {
    if (!(fields >> value)) return 0;
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return ticks > 0 ? static_cast<double>(value) / static_cast<double>(ticks)
                   : 0;
}

namespace {
volatile uint32_t calibration_sink = 0;
}  // namespace

double MemoryCalibrationSeconds() {
  // Sattolo's shuffle makes one cycle through all slots, so every load
  // depends on the previous one and lands on a random cache line.
  constexpr uint32_t kSlots = 16u << 20;  // 64 MiB of uint32_t
  constexpr uint64_t kSteps = 2'500'000;
  std::vector<uint32_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0u);
  std::mt19937_64 rng(12345);
  for (uint32_t i = kSlots - 1; i > 0; --i) {
    std::uniform_int_distribution<uint32_t> pick(0, i - 1);
    std::swap(next[i], next[pick(rng)]);
  }
  const Clock::time_point start = Clock::now();
  // Compiler barriers pin the chase between the two clock reads.
  asm volatile("" ::: "memory");
  uint32_t at = 0;
  for (uint64_t step = 0; step < kSteps; ++step) at = next[at];
  calibration_sink = at;
  asm volatile("" ::: "memory");
  return SecondsBetween(start, Clock::now());
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

}  // namespace ricd::perfbench
