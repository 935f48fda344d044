// Load generators for the serving workloads: a closed loop with one client
// and a window of one (unloaded latency), and an open loop that follows a
// fixed-rate arrival schedule.
//
// The open loop accounts for coordinated omission: every request is timed
// from its *scheduled* send time, not from when the generator got round to
// sending it, so a stall in the system under test (or in the generator)
// is charged to every request scheduled during it. How late the generator
// ran is reported per phase; a phase whose lateness rises is not a valid
// measurement of the system.
//
// Both loops run on the calling thread. The open loop spins rather than
// sleeping between sends (on virtualized hosts a timed sleep can overshoot
// by milliseconds, which would be charged to the system as lateness) and
// polls every outstanding future in between, so an answer that arrives out
// of order is timed when it arrives, not when an older one does. The
// service is reached only through a `submit(i)` callable returning
// StatusOr<std::future<T>>, so the same generator drives the in-process
// router, the shard fleet and the test stub.

#ifndef CKSAFE_PERFBENCH_LOADGEN_H_
#define CKSAFE_PERFBENCH_LOADGEN_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cksafe/util/status.h"

namespace perfbench {

/// Latency samples are grouped into consecutive windows of this length
/// (PhaseResult::WindowedP99).
constexpr double kLatencyWindowS = 0.1;
/// How long the open loop waits, after its last scheduled send, for the
/// answers still outstanding; stragglers count as failed.
constexpr std::chrono::milliseconds kDrainTimeout(5000);

/// How a completed request counts: answered, failed, or refused by
/// backpressure that surfaced through the answer (a shard's admission
/// queue) rather than at Submit.
enum class Outcome { kOk, kFailed, kShed };

/// Outcome counts and samples of one generator phase.
struct PhaseResult {
  std::string name;
  double offered_qps = 0.0;  ///< schedule rate; 0 for the closed loop
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;  ///< errors other than shedding
  uint64_t shed = 0;    ///< ResourceExhausted (backpressure)
  /// Latency (us) of every answered request, from its scheduled send time,
  /// and the window (consecutive slice of kLatencyWindowS) its send was
  /// scheduled in.
  std::vector<double> latency_us;
  std::vector<uint32_t> latency_window;
  /// Send lateness (us): actual send time minus scheduled send time.
  std::vector<double> late_us;
  /// Time (ms) from the last scheduled send until the last completion.
  double drain_ms = 0.0;

  double P50() const { return Quantile(latency_us, 0.50); }
  double P99() const { return Quantile(latency_us, 0.99); }
  double LateP99() const { return Quantile(late_us, 0.99); }
  /// Median over the phase's windows of each window's 99th percentile: the
  /// tail a typical window shows. A rare stall of the host moves one
  /// window, not the figure; a cost every window pays (the re-sweeps after
  /// the writer's swap in it) moves it.
  double WindowedP99() const {
    size_t count = 0;
    for (uint32_t w : latency_window) count = std::max<size_t>(count, w + 1);
    std::vector<std::vector<double>> windows(count);
    for (size_t i = 0; i < latency_us.size(); ++i) {
      windows[latency_window[i]].push_back(latency_us[i]);
    }
    std::vector<double> tails;
    for (const std::vector<double>& window : windows) {
      if (!window.empty()) tails.push_back(Quantile(window, 0.99));
    }
    return Median(tails);
  }
};

namespace loadgen_internal {

inline void Tally(PhaseResult* result, Outcome outcome, double latency_us,
                  double offset_s) {
  switch (outcome) {
    case Outcome::kOk:
      ++result->succeeded;
      result->latency_us.push_back(latency_us);
      result->latency_window.push_back(
          static_cast<uint32_t>(std::max(0.0, offset_s) / kLatencyWindowS));
      return;
    case Outcome::kFailed:
      ++result->failed;
      return;
    case Outcome::kShed:
      ++result->shed;
      return;
  }
}

inline void CountRefused(PhaseResult* result, const cksafe::Status& status) {
  if (status.code() == cksafe::StatusCode::kResourceExhausted) {
    ++result->shed;
  } else {
    ++result->failed;
  }
}

}  // namespace loadgen_internal

/// Open loop: request i is due at start + i / rate_qps, for `seconds`.
/// `submit(i)` returns StatusOr<std::future<T>>; `done(i, T&&, latency_us)`
/// receives each completed request's value and latency and returns its
/// Outcome; only kOk answers contribute latency samples. Admission failures
/// are counted directly: ResourceExhausted as shed, anything else as
/// failed. After the schedule ends the loop drains outstanding requests
/// for at most kDrainTimeout.
template <typename Submit, typename Done>
PhaseResult RunOpenLoop(const std::string& name, double rate_qps,
                        double seconds, Submit&& submit, Done&& done) {
  PhaseResult result;
  result.name = name;
  result.offered_qps = rate_qps;
  const size_t total =
      static_cast<size_t>(std::floor(rate_qps * seconds + 0.5));
  result.latency_us.reserve(total);
  result.latency_window.reserve(total);
  result.late_us.reserve(total);
  const auto period = std::chrono::duration<double>(1.0 / rate_qps);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       period * static_cast<double>(i));
  };

  using FutureT = std::remove_cvref_t<decltype(submit(size_t{0}).value())>;
  struct InFlight {
    size_t index;
    Clock::time_point scheduled;
    FutureT future;
  };
  std::vector<InFlight> in_flight;
  // Polls every outstanding request, completes the ready ones and keeps
  // the rest in send order. All completions of one pass share one clock
  // reading, taken before the pass, so none is charged the pass itself.
  const auto harvest = [&]() {
    const Clock::time_point now = Clock::now();
    size_t kept = 0;
    for (size_t j = 0; j < in_flight.size(); ++j) {
      InFlight& call = in_flight[j];
      if (call.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        if (kept != j) in_flight[kept] = std::move(call);
        ++kept;
        continue;
      }
      const double latency_us = UsBetween(call.scheduled, now);
      loadgen_internal::Tally(
          &result, done(call.index, call.future.get(), latency_us),
          latency_us, static_cast<double>(call.index) / rate_qps);
    }
    in_flight.resize(kept);
  };

  size_t next = 0;
  while (next < total) {
    Clock::time_point now = Clock::now();
    while (next < total && due(next) <= now) {
      const Clock::time_point scheduled = due(next);
      result.late_us.push_back(UsBetween(scheduled, now));
      ++result.attempted;
      auto submitted = submit(next);
      if (submitted.ok()) {
        in_flight.push_back(
            InFlight{next, scheduled, std::move(submitted).value()});
      } else {
        loadgen_internal::CountRefused(&result, submitted.status());
      }
      ++next;
      now = Clock::now();
    }
    harvest();
  }
  const Clock::time_point schedule_end = Clock::now();
  const Clock::time_point drain_deadline = schedule_end + kDrainTimeout;
  while (!in_flight.empty() && Clock::now() < drain_deadline) harvest();
  // Stragglers past the drain deadline are failures; their futures are
  // left to the service, which resolves them on shutdown.
  result.failed += in_flight.size();
  result.drain_ms = SecondsBetween(schedule_end, Clock::now()) * 1e3;
  return result;
}

/// Closed loop, one client, window 1: send, wait for the answer, repeat,
/// for `seconds`, or for exactly `max_requests` requests when that is
/// non-zero. Latency is measured from each send.
template <typename Submit, typename Done>
PhaseResult RunClosedLoop(const std::string& name, double seconds,
                          size_t max_requests, Submit&& submit, Done&& done) {
  PhaseResult result;
  result.name = name;
  const Clock::time_point start = Clock::now();
  const auto span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  for (size_t i = 0; max_requests == 0 || i < max_requests; ++i) {
    const Clock::time_point sent = Clock::now();
    if (max_requests == 0 && sent >= start + span) break;
    ++result.attempted;
    result.late_us.push_back(0.0);
    auto submitted = submit(i);
    if (!submitted.ok()) {
      loadgen_internal::CountRefused(&result, submitted.status());
      continue;
    }
    auto value = std::move(submitted).value().get();
    const double latency_us = UsBetween(sent, Clock::now());
    loadgen_internal::Tally(&result, done(i, std::move(value), latency_us),
                            latency_us, SecondsBetween(start, sent));
  }
  return result;
}

}  // namespace perfbench

#endif  // CKSAFE_PERFBENCH_LOADGEN_H_
