#pragma once
// What one benchmark run hands back to main(): the metrics it measured,
// the operations it attempted and failed, and the correctness checks
// that did not hold.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Block until `t0 + offset_s`: sleep to shortly before it, then spin,
/// because a sleeping thread's wake-up on a virtual machine can be late
/// by more than the latencies this benchmark measures.
inline void wait_until(Clock::time_point t0, double offset_s) {
  const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(offset_s));
  std::this_thread::sleep_until(due - std::chrono::microseconds(200));
  while (Clock::now() < due) {
  }
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct Report {
  /// End-to-end metrics (always measured; printed on untraced runs).
  std::map<std::string, Metric> e2e;
  /// Per-layer metrics (measured on traced runs only).
  std::map<std::string, Metric> layer;
  /// Operations by kind: "walks", "mutations", "queries".
  std::map<std::string, OpCount> ops;
  /// One line per correctness check that failed.
  std::vector<std::string> failures;
  /// Free-form reference figures printed for the README (not metrics).
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

Report run_batch_all(const RunOptions& opt);
Report run_seq_fpga(const RunOptions& opt);
Report run_iot_serve(const RunOptions& opt);

}  // namespace perfbench
