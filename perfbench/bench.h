// Shared pieces of the repository benchmark: command-line arguments, the
// result line every run prints, and small statistics helpers.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fd/fd_set.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured region of one run.
  double seconds = 10;
  /// false: end-to-end metrics from an untraced run; true: per-layer metrics
  /// from a run that records spans around every layer call.
  bool trace = false;
  /// Scratch directory for generated inputs and the span dump.
  std::string workdir = ".bench_work";
};

/// The run's verdict and measurements; printed as the last stdout line.
class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Counts `count` attempted operations as failed and logs why to stderr.
  void Fail(const std::string& why, uint64_t count = 1);
  void AddAttempted(uint64_t count) { attempted_ += count; }

  uint64_t attempted() const { return attempted_; }
  /// Failed operations. One operation can fail several checks, so the count
  /// is capped at the number attempted.
  uint64_t failed() const { return std::min(failed_, attempted_); }
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

double Median(std::vector<double> values);
/// Nearest-rank percentile, `p` in (0, 100].
double Percentile(std::vector<double> values, double p);
/// Peak resident set size of this process so far (getrusage ru_maxrss).
double PeakRssMb();
/// User plus system CPU time of this process so far, all threads included.
double ProcessCpuSeconds();
/// Order-sensitive hash of a canonical FD set, for logs.
uint64_t FdDigest(const hyfd::FDSet& fds);
/// Seconds on the steady clock since an arbitrary fixed origin.
double NowSeconds();

Result RunOneShot(const Args& args);
Result RunServiceLoad(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
