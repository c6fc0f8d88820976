#ifndef PLANORDER_RUNTIME_CLOCK_H_
#define PLANORDER_RUNTIME_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace planorder::runtime {

/// Time source of the simulated network. The runtime charges every latency,
/// backoff and hedge wait through a Clock, so a test or the simulation
/// harness (src/sim/) can substitute a virtual clock and replay a fault /
/// latency schedule deterministically with zero wall-clock cost — while
/// benchmarks keep the real, sleeping clock for wall-clock realism.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Charges `ms` simulated milliseconds. A real clock sleeps (scaled by
  /// `dilation`, see RuntimeOptions::time_dilation); a virtual clock only
  /// advances its counter. Must be safe to call from many threads at once.
  virtual void SleepMs(double ms, double dilation) = 0;

  /// Milliseconds elapsed on this clock since construction (virtual clocks)
  /// or an arbitrary fixed epoch (real clocks).
  virtual double NowMs() const = 0;
};

/// Wall-clock time: SleepMs really sleeps `ms * dilation` milliseconds.
/// Stateless; one process-wide instance is shared by default.
class RealClock : public Clock {
 public:
  void SleepMs(double ms, double dilation) override {
    if (ms <= 0.0 || dilation <= 0.0) return;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(ms * dilation));
  }

  double NowMs() const override {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// The default clock of every RemoteSource.
  static RealClock* Instance();
};

/// Deterministic simulated time: SleepMs never blocks, it atomically adds the
/// *undilated* simulated milliseconds to a counter. Because atomic addition
/// commutes, the total elapsed time after a set of calls is independent of
/// thread interleaving — the property the simulation harness asserts when it
/// replays one fault schedule at different thread counts.
///
/// Time is kept in integer nanoseconds so the accumulation is exact and
/// associative (no floating-point reassociation across threads).
class VirtualClock : public Clock {
 public:
  void SleepMs(double ms, double dilation) override {
    (void)dilation;  // virtual time is never scaled
    if (ms <= 0.0) return;
    now_ns_.fetch_add(static_cast<int64_t>(ms * 1e6),
                      std::memory_order_relaxed);
  }

  double NowMs() const override {
    return static_cast<double>(now_ns_.load(std::memory_order_relaxed)) * 1e-6;
  }

  void Reset() { now_ns_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> now_ns_{0};
};

}  // namespace planorder::runtime

#endif  // PLANORDER_RUNTIME_CLOCK_H_
