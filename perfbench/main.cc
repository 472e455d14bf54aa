// Repository benchmark program. One process runs one workload:
//
//   perfbench --workload discover-long|discover-wide|service-crud
//             --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// and prints, as its last stdout line, one JSON object with the keys
// correct, attempted, failed and metrics. perfbench/run.py builds this
// binary and is the documented entry point.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <sys/resource.h>

#include "bench.h"
#include "util/timer.h"

namespace perfbench {

void Result::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Result::Fail(const std::string& why, uint64_t count) {
  failed_ += count;
  std::fprintf(stderr, "perfbench: FAILED (%" PRIu64 "): %s\n", count, why.c_str());
}

std::string Result::ToJson() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    // %.17g keeps every digit of the measured double.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::max<size_t>(rank, 1);
  return values[std::min(rank, values.size()) - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

uint64_t FdDigest(const hyfd::FDSet& fds) {
  uint64_t h = 1469598103934665603ull;
  auto fold = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const hyfd::FD& fd : fds) {
    for (int attr : fd.lhs.ToIndexes()) fold(static_cast<uint64_t>(attr));
    fold(1000 + static_cast<uint64_t>(fd.rhs));
  }
  return h;
}

double NowSeconds() {
  static const hyfd::Timer origin;
  return origin.ElapsedSeconds();
}

}  // namespace perfbench

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "discover-long|discover-wide|service-crud --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed must be an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) Usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");

  try {
    std::filesystem::create_directories(args.workdir);
    perfbench::Result result;
    if (args.workload == "discover-long" || args.workload == "discover-wide") {
      result = perfbench::RunOneShot(args);
    } else if (args.workload == "service-crud") {
      result = perfbench::RunServiceLoad(args);
    } else {
      Usage(("unknown workload " + args.workload).c_str());
    }
    // A completed run exits 0 even when a check failed: the verdict is the
    // result line's "correct" field.
    std::printf("%s\n", result.ToJson().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: aborted: %s\n", e.what());
    return 1;
  }
}
