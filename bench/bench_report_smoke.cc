// Smoke test for the run-report layer, run in CI's default job: every
// discoverer in the registry plus HyUCC runs on a small dataset and must
// emit a schema-valid run report with non-empty phase timings. An
// incremental session (seed plus one mixed CRUD batch) must report its
// Sampler, Validator and Inductor counters as well. One extra
// HyFD run under a 1-byte memory budget checks that a guardian-pruned
// (truncated) result is machine-detectable as incomplete — the silent
// truncation this observability layer exists to prevent.
//
// Writes one REPORT_<algo>.json per run into --outdir (default ".") so CI
// can archive them; exits non-zero on any schema violation or missing
// degradation flag.
//
// Flags: --rows=N (default 300), --cols=N (default 8), --outdir=DIR.

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/hyfd.h"
#include "core/hyucc.h"
#include "core/incremental.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "util/memory_tracker.h"

namespace {

using namespace hyfd;

/// Validates one emitted report; prints problems; returns false on any.
bool CheckReport(const RunReport& report, const char* label) {
  bool ok = true;
  std::string json = report.ToJson();
  for (const std::string& problem : RunReport::ValidateJsonSchema(json)) {
    std::fprintf(stderr, "FAIL %s: schema: %s\n", label, problem.c_str());
    ok = false;
  }
  if (report.phases.empty()) {
    std::fprintf(stderr, "FAIL %s: no phase timings recorded\n", label);
    ok = false;
  }
  if (report.algorithm.empty()) {
    std::fprintf(stderr, "FAIL %s: empty algorithm name\n", label);
    ok = false;
  }
  // Round-trip: the serialized document must parse back into an equal report
  // (this is what downstream tooling relies on).
  std::string error;
  auto parsed = RunReport::FromJson(json, &error);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "FAIL %s: FromJson: %s\n", label, error.c_str());
    ok = false;
  } else if (!(*parsed == report)) {
    std::fprintf(stderr, "FAIL %s: JSON round-trip is lossy\n", label);
    ok = false;
  }
  return ok;
}

/// Requires counter `name` to be present and positive in `report`.
bool CheckPositiveCounter(const RunReport& report, const char* label,
                          const char* name) {
  if (report.FindCounter(name).value_or(0) > 0) return true;
  std::fprintf(stderr, "FAIL %s: counter %s missing or zero\n", label, name);
  return false;
}

/// Row `r` of `relation` as a session input row.
std::vector<std::optional<std::string>> RowOf(const Relation& relation,
                                              size_t r) {
  std::vector<std::optional<std::string>> row;
  for (int c = 0; c < relation.num_columns(); ++c) {
    if (relation.IsNull(r, c)) {
      row.emplace_back(std::nullopt);
    } else {
      row.emplace_back(relation.Value(r, c));
    }
  }
  return row;
}

bool WriteReport(const RunReport& report, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    return false;
  }
  std::string json = report.ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hyfd::bench;
  Flags flags(argc, argv);
  size_t rows = static_cast<size_t>(flags.GetInt("rows", 300));
  int cols = static_cast<int>(flags.GetInt("cols", 8));
  std::string outdir = flags.GetString("outdir", ".");

  Relation relation = MakeDataset("bridges", rows, cols);
  bool ok = true;

  // Every registry algorithm (including hyfd) through the harness path.
  for (const AlgoInfo& algo : AllAlgorithms()) {
    MemoryTracker tracker;
    RunResult r;
    AlgoOptions options;
    options.deadline_seconds = 60;
    options.memory_tracker = &tracker;
    r.report.dataset = "bridges";
    options.run_report = &r.report;
    try {
      FDSet fds = algo.run(relation, options);
      r.status = RunResult::kOk;
      r.num_fds = fds.size();
    } catch (const TimeoutError&) {
      r.status = RunResult::kTimeLimit;
      r.report.MarkIncomplete("deadline exceeded");
    }
    ok = CheckReport(r.report, algo.name.c_str()) && ok;
    if (r.status == RunResult::kOk && !r.report.complete) {
      std::fprintf(stderr, "FAIL %s: unlimited run reported incomplete\n",
                   algo.name.c_str());
      ok = false;
    }
    ok = WriteReport(r.report, outdir + "/REPORT_" + algo.name + ".json") && ok;
  }

  // HyUCC (not in the FD registry, same report schema).
  {
    RunReport report;
    report.dataset = "bridges";
    HyUccConfig config;
    config.run_report = &report;
    HyUcc algo(config);
    algo.Discover(relation);
    ok = CheckReport(report, "hyucc") && ok;
    ok = WriteReport(report, outdir + "/REPORT_hyucc.json") && ok;
  }

  // Incremental session: the seed samples, and a mixed batch (inserts that
  // repeat existing rows' values, deletes, one update) validates and
  // specializes through the Inductor; both reports carry those counters.
  {
    RunReport report;
    report.dataset = "bridges";
    IncrementalConfig config;
    config.run_report = &report;
    IncrementalHyFd session(relation, config);
    ok = CheckReport(report, "hyfd_incremental seed") && ok;
    ok = CheckPositiveCounter(report, "hyfd_incremental seed",
                              "sampler.windows") && ok;
    std::vector<std::vector<std::optional<std::string>>> inserts;
    for (size_t r = 0; r < 10 && r < relation.num_rows(); ++r) {
      inserts.push_back(RowOf(relation, r));
    }
    std::vector<RecordId> deletes;
    for (size_t r = 10; r < 15 && r < relation.num_rows(); ++r) {
      deletes.push_back(static_cast<RecordId>(r));
    }
    std::vector<std::pair<RecordId, std::vector<std::optional<std::string>>>>
        updates;
    if (relation.num_rows() > 16) updates.emplace_back(15, RowOf(relation, 16));
    session.ApplyMixed(inserts, deletes, updates);
    ok = CheckReport(report, "hyfd_incremental") && ok;
    for (const char* name : {"validator.levels", "inductor.updates",
                             "incremental.batches"}) {
      ok = CheckPositiveCounter(report, "hyfd_incremental", name) && ok;
    }
    ok = WriteReport(report, outdir + "/REPORT_hyfd_incremental.json") && ok;
  }

  // Guardian-pruned run: a 1-byte budget forces pruning on FD-reduced data;
  // the report MUST say the result is incomplete and name the cap.
  {
    Relation dense = GenerateFdReduced(150, 8, 4, /*seed=*/19);
    RunReport report;
    report.dataset = "fd-reduced (generated)";
    HyFdConfig config;
    config.memory_limit_bytes = 1;
    config.run_report = &report;
    HyFd algo(config);
    algo.Discover(dense);
    ok = CheckReport(report, "hyfd-pruned") && ok;
    if (report.complete) {
      std::fprintf(stderr,
                   "FAIL hyfd-pruned: guardian pruned but complete=true — "
                   "silent truncation\n");
      ok = false;
    }
    if (report.degradation_reasons.empty()) {
      std::fprintf(stderr, "FAIL hyfd-pruned: no degradation reason\n");
      ok = false;
    }
    if (report.pruned_lhs_cap < 1) {
      std::fprintf(stderr, "FAIL hyfd-pruned: pruned_lhs_cap = %d\n",
                   report.pruned_lhs_cap);
      ok = false;
    }
    if (!algo.stats().complete) {
      // consistent with the stats view by construction; double-check anyway
    } else {
      std::fprintf(stderr, "FAIL hyfd-pruned: stats().complete is true\n");
      ok = false;
    }
    ok = WriteReport(report, outdir + "/REPORT_hyfd_pruned.json") && ok;
  }

  std::printf(ok ? "report smoke: all reports schema-valid\n"
                 : "report smoke: FAILURES (see stderr)\n");
  return ok ? 0 : 1;
}
