// Shared plumbing of the perfbench binary: run configuration, the result
// report (metrics by name and unit, correctness verdict), sample
// statistics, the in-memory span recorder of the traced run, host facts,
// and the scratch directory every workload writes under.
//
// Everything here lives outside the library: spans are recorded around
// calls into the library's public API, never inside it.

#ifndef CKSAFE_PERFBENCH_BENCH_UTIL_H_
#define CKSAFE_PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsSince(Clock::time_point t0) {
  return SecondsBetween(t0, Clock::now()) * 1e3;
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return SecondsBetween(a, b) * 1e6;
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t nproc = 1;
  /// Directory (relative to the checkout root) for trace files and the
  /// per-run scratch directories; run.py cleans up after it.
  std::string out_dir = ".bench_out";
};

/// One run's verdict and metrics, printed as the final JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check (the run's `correct` goes false).
  void Fail(const std::string& why);
  /// Counts operations against the run's attempted / failed totals.
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return errors_.empty(); }
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Order statistics over a sample (copied and sorted on demand).
double Median(std::vector<double> values);
double Quantile(std::vector<double> values, double q);
/// The highest percentile with at least ten samples beyond it: the value
/// at sorted index n - 11. Requires n >= 11; falls back to the maximum.
double TailValue(std::vector<double> values);

/// Failures over attempts with add-one smoothing, (failed + 1) /
/// (attempted + 1): zero failures read as 1 / (attempted + 1) rather than
/// 0, so the metric stays positive and a relative regression bound applies
/// (one failure in a run doubles it).
inline double SmoothedFailFrac(uint64_t failed, uint64_t attempted) {
  return static_cast<double>(failed + 1) / static_cast<double>(attempted + 1);
}

/// In-memory span recorder for the traced run. A disabled tracer records
/// nothing; Begin/End cost one clock read each when enabled. Thread safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const char* name, uint64_t parent = 0);
  void End(uint64_t id);
  /// Records a span with explicit bounds.
  void Record(const char* name, Clock::time_point start,
              Clock::time_point end);

  size_t size() const;

  /// Writes every span as JSON (name, id, parent, thread, start/end ns
  /// relative to the tracer's origin). Returns false on IO failure.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint64_t thread;
    Clock::time_point start;
    Clock::time_point end;
    bool closed;
  };
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span over a Tracer (no-op when the tracer is null or disabled).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Begin(name, parent) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

/// Host and build facts recorded with every result.
struct HostInfo {
  size_t nproc = 1;
  std::string cpu_model;
  std::string simd_level;
  std::string cksafe_simd_env;
  std::string build_type;
  bool sanitized = false;
  bool debug = false;
  std::string ToJson() const;
};
HostInfo ProbeHost();

/// Cumulative CPU time of all CPUs (/proc/stat, in clock ticks): the time
/// the guest ran and the time the hypervisor gave its vCPUs to others.
struct CpuTicks {
  double busy = 0.0;
  double steal = 0.0;
};
CpuTicks ReadCpuTicks();
/// Share of the guest's wanted CPU time between two readings that the
/// hypervisor stole: steal / (busy + steal).
double StealFrac(const CpuTicks& before, const CpuTicks& after);

/// Peak resident set (MiB, VmHWM) of this process plus the private memory
/// (Private_Clean + Private_Dirty, now) of the live children in
/// `child_pids`, read from /proc. Children forked without exec share the
/// parent's pages copy-on-write; their VmHWM would count those again.
double PeakRssMb(const std::vector<int>& child_pids);
/// Pids of this process's live children (from /proc task children lists).
std::vector<int> ChildPids();

/// A fresh directory under the run's out dir, removed recursively when the
/// object goes away (every return path of a workload, including failed
/// checks). The path is relative to the checkout root and short, so unix
/// socket paths built under it fit sockaddr_un.
class ScratchDir {
 public:
  explicit ScratchDir(const RunConfig& config);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  bool ok() const { return ok_; }
  /// Creates and returns `<path>/<name>`.
  std::string Sub(const std::string& name) const;

 private:
  std::string path_;
  bool ok_ = false;
};

/// Pins the calling thread to CPUs [first, last] (clamped to the online
/// CPUs). Threads and processes created afterwards inherit the mask.
void PinCurrentThread(size_t first, size_t last);

/// Pins every thread of process `pid` to CPU `cpu` (the last online CPU
/// when there are fewer); threads it starts later inherit the placement.
void PinProcess(int pid, size_t cpu);

/// Runs `fn(i)` for i = 0, 1, ... at least `min_reps` times and until
/// `min_seconds` have passed (at most 1000 times, and no more once `fn`
/// returns false), and returns each run's wall time in seconds. The
/// workloads time their set-up this way and report the median: cheap
/// set-ups are repeated often enough that the median is not one clock
/// tick's worth of noise.
template <typename Fn>
std::vector<double> TimeRepeated(size_t min_reps, double min_seconds,
                                 Fn&& fn) {
  std::vector<double> seconds;
  double total = 0.0;
  for (size_t i = 0;
       i < 1000 && (i < min_reps || total < min_seconds); ++i) {
    const auto t0 = Clock::now();
    const bool ok = fn(i);
    seconds.push_back(SecondsBetween(t0, Clock::now()));
    total += seconds.back();
    if (!ok) break;
  }
  return seconds;
}

}  // namespace perfbench

#endif  // CKSAFE_PERFBENCH_BENCH_UTIL_H_
