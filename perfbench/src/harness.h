#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared plumbing of the benchmark: command-line arguments, the report that
// becomes the last stdout line, timing and order statistics.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (index files, WAL).
  std::string tmp_dir;
};

/// What one run prints as its last line: correctness, operation counts and
/// the metrics of the selected mode (end to end, or per layer when traced).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// One facade operation was issued.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// An operation returned a non-ok Status.
  void Error(const std::string& what) {
    ++failed_;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  /// An operation's answer failed a check (wrong output).
  void Wrong(const std::string& what) {
    ++failed_;
    correct_ = false;
    std::fprintf(stderr, "WRONG: %s\n", what.c_str());
  }
  void PrintJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Entry> metrics_;
};

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Threads a load generator may use: min(4, nproc).
size_t LoadThreads();
/// Processors this process may run on, as nproc counts them (at least 1).
size_t NumProcs();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
