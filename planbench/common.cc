#include "common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <mutex>
#include <thread>

namespace planbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  // Writing 5 to clear_refs resets the peak RSS (proc(5)).
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

uint64_t DeriveSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

LoopResult RunClosedLoop(int clients, double seconds, const OpFn& op) {
  std::vector<std::vector<OpSample>> per_client(static_cast<size_t>(clients));
  std::atomic<bool> stop{false};
  std::mutex error_mu;
  Status first_error;
  const double start_ms = NowMs();
  const double deadline_ms = start_ms + seconds * 1000.0;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<OpSample>& samples = per_client[static_cast<size_t>(c)];
      for (int64_t n = 0; !stop.load() && NowMs() < deadline_ms; ++n) {
        OpSample sample;
        Status status = op(c, n, &sample);
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.ok()) first_error = std::move(status);
          stop.store(true);
          return;
        }
        samples.push_back(sample);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  LoopResult result;
  result.window_s = (NowMs() - start_ms) / 1000.0;
  result.error = first_error;
  for (std::vector<OpSample>& samples : per_client) {
    result.samples.insert(result.samples.end(), samples.begin(), samples.end());
  }
  return result;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace planbench
