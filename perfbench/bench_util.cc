#include "bench_util.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "cksafe/simd/dispatch.h"

namespace perfbench {
namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char ch : text) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(ch);
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Value of the first "<key>:" line of a /proc-style file, trimmed.
std::string ProcField(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    const size_t first = value.find_first_not_of(" \t");
    return first == std::string::npos ? "" : value.substr(first);
  }
  return "";
}

double VmHwmMb(const std::string& status_path) {
  const std::string field = ProcField(status_path, "VmHWM");
  if (field.empty()) return 0.0;
  return std::strtod(field.c_str(), nullptr) / 1024.0;  // kB -> MiB
}

// Memory (MiB) that only this process maps: pages a forked child still
// shares copy-on-write with its parent are the parent's, not the child's.
double PrivateMb(const std::string& rollup_path) {
  double kb = 0.0;
  for (const char* key : {"Private_Clean", "Private_Dirty"}) {
    kb += std::strtod(ProcField(rollup_path, key).c_str(), nullptr);
  }
  return kb / 1024.0;
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  errors_.push_back(why);
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << std::max<uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << JsonEscape(metrics_[i].name) << "\": {\"value\": "
        << JsonNumber(metrics_[i].value) << ", \"unit\": \""
        << JsonEscape(metrics_[i].unit) << "\"}";
  }
  out << "}}";
  return out.str();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double TailValue(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (values.size() < 11) return values.back();
  return values[values.size() - 11];
}

uint64_t Tracer::Begin(const char* name, uint64_t parent) {
  if (!enabled_) return 0;
  const auto now = Clock::now();
  const uint64_t thread =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, spans_.size() + 1, parent, thread, now, now,
                        false});
  return spans_.size();
}

void Tracer::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[id - 1];
  span.end = now;
  span.closed = true;
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) return;
  const uint64_t thread =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, spans_.size() + 1, 0, thread, start, end, true});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const auto ns = [&](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
          .count();
    };
    out << "{\"name\": \"" << span.name << "\", \"id\": " << span.id
        << ", \"parent\": " << span.parent << ", \"thread\": " << span.thread
        << ", \"start_ns\": " << ns(span.start)
        << ", \"end_ns\": " << ns(span.closed ? span.end : span.start) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

std::string HostInfo::ToJson() const {
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"cpu_model\": \""
      << JsonEscape(cpu_model) << "\", \"simd_level\": \""
      << JsonEscape(simd_level) << "\", \"CKSAFE_SIMD\": \""
      << JsonEscape(cksafe_simd_env) << "\", \"build_type\": \""
      << JsonEscape(build_type) << "\", \"sanitized\": "
      << (sanitized ? "true" : "false")
      << ", \"debug\": " << (debug ? "true" : "false") << "}";
  return out.str();
}

HostInfo ProbeHost() {
  HostInfo host;
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  host.nproc = online > 0 ? static_cast<size_t>(online) : 1;
  host.cpu_model = ProcField("/proc/cpuinfo", "model name");
  host.simd_level = cksafe::SimdLevelName(cksafe::ActiveSimdLevel());
  const char* env = std::getenv("CKSAFE_SIMD");
  host.cksafe_simd_env = env == nullptr ? "" : env;
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.sanitized = PERFBENCH_SANITIZED != 0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  host.sanitized = true;
#endif
#ifndef NDEBUG
  host.debug = true;
#endif
  if (host.build_type == "Debug") host.debug = true;
  return host;
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  CpuTicks ticks;
  if (in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
      softirq >> steal) {
    ticks.busy = user + nice + system + irq + softirq;
    ticks.steal = steal;
  }
  return ticks;
}

double StealFrac(const CpuTicks& before, const CpuTicks& after) {
  const double steal = after.steal - before.steal;
  const double wanted = after.busy - before.busy + steal;
  return wanted > 0.0 ? steal / wanted : 0.0;
}

std::vector<int> ChildPids() {
  std::vector<int> pids;
  std::error_code error;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    std::ifstream in(task.path() / "children");
    int pid = 0;
    while (in >> pid) pids.push_back(pid);
  }
  return pids;
}

double PeakRssMb(const std::vector<int>& child_pids) {
  double total = VmHwmMb("/proc/self/status");
  for (int pid : child_pids) {
    total += PrivateMb("/proc/" + std::to_string(pid) + "/smaps_rollup");
  }
  return total;
}

void PinCurrentThread(size_t first, size_t last) {
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  const size_t cpus = online > 0 ? static_cast<size_t>(online) : 1;
  last = std::min(last, cpus - 1);
  first = std::min(first, last);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t i = first; i <= last; ++i) CPU_SET(i, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

void PinProcess(int pid, size_t cpu) {
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  cpu = std::min(cpu, static_cast<size_t>(std::max(online, 1L)) - 1);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  std::error_code error;
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid) + "/task", error)) {
    const int tid = std::atoi(task.path().filename().c_str());
    ::sched_setaffinity(tid, sizeof(set), &set);
  }
}

ScratchDir::ScratchDir(const RunConfig& config) {
  static int counter = 0;
  path_ = config.out_dir + "/tmp-" + std::to_string(::getpid()) + "-" +
          std::to_string(counter++);
  std::error_code error;
  std::filesystem::remove_all(path_, error);
  ok_ = std::filesystem::create_directories(path_, error) && !error;
}

ScratchDir::~ScratchDir() {
  std::error_code error;
  std::filesystem::remove_all(path_, error);
}

std::string ScratchDir::Sub(const std::string& name) const {
  const std::string sub = path_ + "/" + name;
  std::error_code error;
  std::filesystem::create_directories(sub, error);
  return sub;
}

}  // namespace perfbench
