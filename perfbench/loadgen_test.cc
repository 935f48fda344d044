// The load generator against a stub service with a fixed service delay:
// at a low rate the measured latency is the delay, and a stall injected
// into the send path is charged to every request scheduled during it
// (the coordinated-omission accounting the serving workloads rely on), and
// an answer that overtakes an older one is timed when it arrives.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "loadgen.h"

namespace perfbench {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

constexpr size_t kNone = static_cast<size_t>(-1);

// One FIFO server thread that answers each request after a fixed delay
// (spun, since a timed sleep on a virtual machine overshoots). `stall_index`
// makes Submit itself block for `stall` when that request is sent, as a
// blocking transport would. `slow_index` is answered out of order, by a
// thread of its own after `slow`, as a stalled shard's answer is overtaken
// by another shard's. As in the workloads, the generator (the test's
// thread) gets CPU 0 and the server the others, so the two spinning threads
// never share a CPU.
class StubService {
 public:
  StubService(microseconds delay, size_t stall_index, milliseconds stall,
              size_t slow_index = kNone, milliseconds slow = milliseconds(0))
      : delay_(delay),
        stall_index_(stall_index),
        stall_(stall),
        slow_index_(slow_index),
        slow_(slow) {
    PinCurrentThread(0, 0);
    worker_ = std::thread([this] {
      PinCurrentThread(1, SIZE_MAX);
      ServeLoop();
    });
  }
  ~StubService() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    worker_.join();
    if (slow_worker_.joinable()) slow_worker_.join();
  }
  StubService(const StubService&) = delete;
  StubService& operator=(const StubService&) = delete;

  cksafe::StatusOr<std::future<size_t>> Submit(size_t i) {
    if (i == stall_index_) std::this_thread::sleep_for(stall_);
    std::promise<size_t> promise;
    std::future<size_t> future = promise.get_future();
    if (i == slow_index_) {
      slow_worker_ =
          std::thread([this, i, slow = std::move(promise)]() mutable {
            std::this_thread::sleep_for(slow_);
            slow.set_value(i);
          });
      return future;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(Request{i, std::move(promise)});
    }
    cv_.notify_one();
    return future;
  }

 private:
  struct Request {
    size_t index;
    std::promise<size_t> promise;
  };

  void ServeLoop() {
    for (;;) {
      Request request;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;
        request = std::move(queue_.front());
        queue_.pop_front();
      }
      const auto until = Clock::now() + delay_;
      while (Clock::now() < until) {
      }
      request.promise.set_value(request.index);
    }
  }

  const microseconds delay_;
  const size_t stall_index_;
  const milliseconds stall_;
  const size_t slow_index_;
  const milliseconds slow_;
  std::thread slow_worker_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;
  std::thread worker_;
};

// The stub answers request i with i.
Outcome Echoed(size_t i, size_t answer, double /*latency_us*/) {
  return answer == i ? Outcome::kOk : Outcome::kFailed;
}

TEST(LoadgenTest, LowRateLatencyIsTheServiceDelay) {
  StubService stub(microseconds(5000), kNone, milliseconds(0));
  const PhaseResult result = RunOpenLoop(
      "low", /*rate_qps=*/100.0, /*seconds=*/1.0,
      [&](size_t i) { return stub.Submit(i); },
      Echoed);
  EXPECT_EQ(result.attempted, 100u);
  EXPECT_EQ(result.succeeded, 100u);
  EXPECT_EQ(result.failed + result.shed, 0u);
  // The delay is a floor; scheduling noise may add a little on top. The
  // generator itself runs on time (a median, so that one stall of a shared
  // host does not fail the test).
  EXPECT_GE(result.P50(), 5000.0);
  EXPECT_LE(result.P50(), 7000.0);
  EXPECT_LT(Quantile(result.late_us, 0.5), 500.0);
}

TEST(LoadgenTest, StallIsChargedToEveryRequestScheduledDuringIt) {
  constexpr double kRate = 1000.0;
  constexpr size_t kStallIndex = 200;
  constexpr double kStallMs = 100.0;
  StubService stub(microseconds(100), kStallIndex,
                   milliseconds(static_cast<int>(kStallMs)));
  std::vector<double> latency(500, -1.0);
  const PhaseResult result = RunOpenLoop(
      "stall", kRate, /*seconds=*/0.5,
      [&](size_t i) { return stub.Submit(i); },
      [&](size_t i, size_t answer, double latency_us) {
        latency[i] = latency_us;
        return Echoed(i, answer, latency_us);
      });
  ASSERT_EQ(result.succeeded, 500u);
  // Request i (scheduled i ms in) cannot be sent before the stall ends at
  // ~(kStallIndex + kStallMs) ms, so it waits at least the remainder.
  const size_t stalled = static_cast<size_t>(kStallMs * kRate / 1000.0);
  for (size_t i = kStallIndex; i < kStallIndex + stalled; ++i) {
    const double owed_us = (kStallIndex + kStallMs - static_cast<double>(i)) *
                           1000.0;
    EXPECT_GE(latency[i], owed_us - 500.0) << "request " << i;
  }
  // The generator reports how late it sent: the ~100 requests held back
  // by the stall were late by up to the whole stall, so the top 1% of
  // lateness (5 of 500) is close to it.
  EXPECT_GE(result.LateP99(), 0.8 * kStallMs * 1000.0);
}

TEST(LoadgenTest, OutOfOrderAnswersAreTimedWhenTheyArrive) {
  // Request 0 is answered after 200 ms; the 199 requests scheduled behind
  // it are answered within 100 us of their send and must be timed so, not
  // when request 0 finally completes.
  constexpr size_t kRequests = 200;
  StubService stub(microseconds(100), kNone, milliseconds(0),
                   /*slow_index=*/0, /*slow=*/milliseconds(200));
  std::vector<double> latency(kRequests, -1.0);
  const PhaseResult result = RunOpenLoop(
      "out-of-order", /*rate_qps=*/1000.0, /*seconds=*/0.2,
      [&](size_t i) { return stub.Submit(i); },
      [&](size_t i, size_t answer, double latency_us) {
        latency[i] = latency_us;
        return Echoed(i, answer, latency_us);
      });
  ASSERT_EQ(result.succeeded, kRequests);
  EXPECT_GE(latency[0], 200000.0);
  // A median, so that one stall of a shared host does not fail the test.
  const std::vector<double> overtaking(latency.begin() + 1, latency.end());
  EXPECT_LT(Quantile(overtaking, 0.5), 1000.0);
  EXPECT_LT(Quantile(overtaking, 0.9), 20000.0);
}

TEST(LoadgenTest, ClosedLoopTimesFromEachSend) {
  StubService stub(microseconds(2000), kNone, milliseconds(0));
  const PhaseResult result = RunClosedLoop(
      "closed", /*seconds=*/10.0, /*max_requests=*/50,
      [&](size_t i) { return stub.Submit(i); },
      Echoed);
  EXPECT_EQ(result.attempted, 50u);
  EXPECT_EQ(result.succeeded, 50u);
  EXPECT_GE(result.P50(), 2000.0);
  EXPECT_LE(result.P50(), 4000.0);
}

}  // namespace
}  // namespace perfbench
