// One-shot discovery workloads: from a CSV file to the FD set.
//
//   discover-long  fd-reduced, 100,000 rows x 12 columns, domain 16,
//                  threshold 0.001, 4 threads. The row regime (paper Fig. 6
//                  and Fig. 9): Sampler and Validator over few huge clusters.
//   discover-wide  uniprot profile, 1,000 rows x 38 columns, threshold 0.01,
//                  4 threads. The column regime (paper Fig. 7): the Inductor
//                  and FD tree dominate and the Sampler is nearly idle.
//
// One operation is ReadCsvFile followed by HyFd::Discover with a fresh HyFd
// object, so no PLI cache survives from one operation to the next. The
// traced run re-drives HyFd::Discover's hybrid loop from here, with a span
// around every call into a layer, and fails if that loop diverges from
// HyFd::Discover.

#include <cstdio>
#include <filesystem>
#include <functional>
#include <malloc.h>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "bench.h"
#include "core/hyfd.h"
#include "core/inductor.h"
#include "core/preprocessor.h"
#include "core/sampler.h"
#include "core/validator.h"
#include "data/csv.h"
#include "data/generators.h"
#include "fd/fd_tree.h"
#include "pli/pli_cache.h"
#include "trace.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using hyfd::FDSet;
using hyfd::HyFd;
using hyfd::HyFdConfig;
using hyfd::Relation;

struct OneShotSpec {
  double threshold;
  /// Independent algorithm whose answer gates correctness.
  const char* oracle;
  std::function<Relation(uint64_t seed)> make;
};

/// The uniprot stand-in's column recipe (data/datasets.cc, kWideSparse) at
/// 1,000 rows x 38 columns, generated from the benchmark seed; with seed 117
/// this is exactly MakeDataset("uniprot", 1000, 38). At 40 columns the FD
/// count (about 500k-545k across seeds) straddles 2^19, where the result
/// vector's capacity doubles, so peak RSS jumped by a third from one seed to
/// the next; at 38 columns every seed tried lands between 2^18 and 2^19.
Relation MakeWide(uint64_t seed) {
  const uint64_t rows = 1000;
  hyfd::GeneratorConfig config;
  config.rows = rows;
  config.seed = seed;
  for (int c = 0; c < 38; ++c) {
    hyfd::ColumnSpec spec;
    switch (c % 6) {
      case 0:
        spec = {.cardinality = 4 * rows, .null_rate = 0.02};
        break;
      case 1:
        spec = {.cardinality = rows / 2, .null_rate = 0.05};
        break;
      case 2:
        spec = {.cardinality = 200,
                .distribution = hyfd::Distribution::kZipf,
                .null_rate = 0.05};
        break;
      case 3:
        spec = {.cardinality = 5000, .sources = {c - 2}};
        break;
      case 4:
        spec = {.cardinality = rows, .null_rate = 0.1};
        break;
      default:
        spec = {.cardinality = 25, .null_rate = 0.3};
        break;
    }
    config.columns.push_back(spec);
  }
  return hyfd::Generate(config);
}

OneShotSpec SpecFor(const std::string& workload) {
  if (workload == "discover-long") {
    return {0.001, "tane", [](uint64_t seed) {
              return hyfd::GenerateFdReduced(100000, 12, 16, seed);
            }};
  }
  return {0.01, "fdep", MakeWide};
}

HyFdConfig DiscoverConfig(const OneShotSpec& spec) {
  HyFdConfig config;
  config.efficiency_threshold = spec.threshold;
  config.num_threads = 4;
  return config;
}

/// What the traced loop saw, read at the layer boundaries.
struct LoopOutcome {
  FDSet fds;
  size_t comparisons = 0;
  size_t validations = 0;
  size_t non_fds = 0;
  size_t non_fds_folded = 0;
  size_t cover_bytes = 0;
  size_t preprocess_bytes = 0;
  size_t tree_nodes = 0;
  size_t tree_bytes = 0;
  int levels = 0;
  int iterations = 0;
  uint64_t invalid = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

/// HyFd::Discover's hybrid loop with the configuration `config`, driven
/// through the layers' public functions. Each layer call is one span under
/// the root span "discover". With a null tracer it is the untraced loop.
LoopOutcome TracedDiscover(const std::string& csv_path, const HyFdConfig& config,
                           Tracer* tracer) {
  LoopOutcome out;
  Tracer::Scope root(tracer, "discover");
  Relation relation;
  {
    Tracer::Scope span(tracer, "data.load");
    relation = hyfd::ReadCsvFile(csv_path);
  }
  hyfd::PreprocessedData data;
  {
    Tracer::Scope span(tracer, "preprocess");
    data = hyfd::Preprocess(relation, config.null_semantics);
  }
  // HyFd::Discover's owned cache: thread-safe iff the run is parallel.
  hyfd::PliCache::Config cache_config;
  cache_config.budget_bytes = config.pli_cache_budget_bytes;
  cache_config.thread_safe = config.num_threads > 1;
  hyfd::PliCache cache(data.num_attributes, data.num_records, cache_config,
                       config.null_semantics);
  std::unique_ptr<hyfd::ThreadPool> pool;
  if (config.num_threads > 1) {
    pool = std::make_unique<hyfd::ThreadPool>(static_cast<size_t>(config.num_threads));
  }
  hyfd::MetricsRegistry metrics;
  hyfd::FDTree tree(data.num_attributes);
  hyfd::Sampler sampler(&data, config.efficiency_threshold,
                        config.sampling_strategy, pool.get(), &metrics);
  hyfd::Inductor inductor(&tree, &metrics);
  hyfd::Validator validator(&data, &tree, config.efficiency_threshold,
                            pool.get(), &cache, &metrics);

  std::vector<std::pair<hyfd::RecordId, hyfd::RecordId>> suggestions;
  while (true) {
    ++out.iterations;
    std::vector<hyfd::AttributeSet> non_fds;
    {
      Tracer::Scope span(tracer, "sampler");
      non_fds = sampler.Run(suggestions);
    }
    out.non_fds_folded += non_fds.size();
    {
      Tracer::Scope span(tracer, "inductor");
      inductor.Update(std::move(non_fds));
    }
    hyfd::ValidatorResult result;
    {
      Tracer::Scope span(tracer, "validator");
      result = validator.Run();
    }
    if (result.done) break;
    suggestions = std::move(result.comparison_suggestions);
  }
  {
    Tracer::Scope span(tracer, "fdtree.to_fdset");
    out.fds = tree.ToFdSet();
  }
  // Sizes are read after the timed spans: walking the tree is not free.
  out.comparisons = sampler.total_comparisons();
  out.non_fds = sampler.num_non_fds();
  out.cover_bytes = sampler.NegativeCoverBytes();
  out.validations = validator.total_validations();
  out.levels = validator.levels_validated();
  out.preprocess_bytes = data.MemoryBytes();
  out.tree_nodes = tree.CountNodes();
  out.tree_bytes = tree.MemoryBytes();
  for (const auto& [name, value] : metrics.Export()) {
    if (name == "validator.invalid_fds") out.invalid = value;
  }
  const hyfd::PliCache::Counters counters = cache.counters();
  out.cache_hits = counters.hits;
  out.cache_misses = counters.misses;
  return out;
}

struct TimedDiscovery {
  FDSet fds;
  double seconds = 0;
  double cpu_seconds = 0;
  size_t comparisons = 0;
  size_t validations = 0;
};

TimedDiscovery Discover(const std::string& csv_path, const HyFdConfig& config) {
  TimedDiscovery out;
  const double cpu_start = ProcessCpuSeconds();
  hyfd::Timer timer;
  Relation relation = hyfd::ReadCsvFile(csv_path);
  HyFd algo(config);
  out.fds = algo.Discover(relation);
  out.seconds = timer.ElapsedSeconds();
  out.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  out.comparisons = algo.stats().comparisons;
  out.validations = algo.stats().validations;
  return out;
}

/// Hands memory the last operation freed back to the kernel, so each
/// operation's peak RSS starts from the same floor instead of from whatever
/// the allocator's per-thread arenas happened to retain.
void ReleaseFreedMemory() { malloc_trim(0); }

}  // namespace

Result RunOneShot(const Args& args) {
  const OneShotSpec spec = SpecFor(args.workload);
  const HyFdConfig config = DiscoverConfig(spec);
  const std::string csv_path = args.workdir + "/" + args.workload + ".csv";
  Result result;

  // Set-up: generate and write the input, at least ten times and for at
  // least a second; the median is setup_s.
  std::vector<double> setup_times;
  const double setup_start = NowSeconds();
  while (setup_times.size() < 10 || NowSeconds() - setup_start < 1.0) {
    hyfd::Timer timer;
    hyfd::WriteCsvFile(spec.make(args.seed), csv_path);
    setup_times.push_back(timer.ElapsedSeconds());
  }

  // Untimed warm-up: a cold first discovery is markedly slower. Only the
  // answer's digest is kept, so the benchmark's own copy of a large FD set
  // does not count in peak_rss_mb.
  ReleaseFreedMemory();
  double first_seconds = 0;
  size_t reference_size = 0;
  uint64_t reference_digest = 0;
  {
    const TimedDiscovery first = Discover(csv_path, config);
    first_seconds = first.seconds;
    reference_size = first.fds.size();
    reference_digest = FdDigest(first.fds);
  }
  ReleaseFreedMemory();
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu FDs, digest %016llx\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               reference_size, static_cast<unsigned long long>(reference_digest));
  auto is_reference = [&](const FDSet& fds) {
    return fds.size() == reference_size && FdDigest(fds) == reference_digest;
  };

  std::vector<double> op_ms;
  size_t mismatched = 0;
  const double start = NowSeconds();
  if (!args.trace) {
    double cpu_seconds = 0;
    double op_seconds = 0;
    while (NowSeconds() - start < args.seconds || op_ms.size() < 3) {
      TimedDiscovery run = Discover(csv_path, config);
      op_ms.push_back(run.seconds * 1e3);
      cpu_seconds += run.cpu_seconds;
      op_seconds += run.seconds;
      if (!is_reference(run.fds)) ++mismatched;
      run = {};
      ReleaseFreedMemory();
    }
    result.AddAttempted(op_ms.size());
    result.Set("setup_s", Median(setup_times), "s");
    result.Set("peak_rss_mb", PeakRssMb(), "MB");
    // Discoveries run back to back: throughput over the operations' own time,
    // without the benchmark's checks between them.
    result.Set("ops_per_s", static_cast<double>(op_ms.size()) / op_seconds, "1/s");
    result.Set("op_p50_ms", Median(op_ms), "ms");
    result.Set("cpu_ms_per_op", 1e3 * cpu_seconds / static_cast<double>(op_ms.size()), "ms");
  } else {
    // Pair untraced HyFd::Discover with the traced loop; the difference of
    // their medians is the tracing overhead (and any cost of the loop's
    // re-driving itself).
    Tracer tracer;
    LoopOutcome last;
    size_t traced = 0;
    size_t sampler_calls = 0;
    size_t validator_calls = 0;
    std::vector<double> traced_s;
    // Self seconds per repetition, by layer span.
    std::map<std::string, std::vector<double>> layer_s;
    std::vector<double> unattributed;
    while (NowSeconds() - start < args.seconds || traced < 2) {
      // The two alternate which goes first, so neither gets the warmer slot.
      const size_t mark = tracer.spans().size();
      TimedDiscovery run;
      LoopOutcome loop;
      if (traced++ % 2 == 0) {
        run = Discover(csv_path, config);
        loop = TracedDiscover(csv_path, config, &tracer);
      } else {
        loop = TracedDiscover(csv_path, config, &tracer);
        run = Discover(csv_path, config);
      }
      op_ms.push_back(run.seconds * 1e3);
      if (!is_reference(run.fds)) ++mismatched;
      traced_s.push_back(tracer.TotalSeconds("discover", mark));
      for (const char* layer : {"data.load", "preprocess", "sampler", "inductor",
                                "validator", "fdtree.to_fdset"}) {
        layer_s[layer].push_back(tracer.SelfSeconds(layer, mark));
      }
      unattributed.push_back(tracer.UnattributedPct("discover", mark));

      // Divergence: the re-driven loop must be HyFd::Discover, step for step.
      if (!(loop.fds == run.fds) || loop.comparisons != run.comparisons ||
          loop.validations != run.validations) {
        result.Fail("traced loop diverged from HyFd::Discover (FDs " +
                    std::to_string(loop.fds.size()) + " vs " +
                    std::to_string(run.fds.size()) + ", comparisons " +
                    std::to_string(loop.comparisons) + " vs " +
                    std::to_string(run.comparisons) + ", validations " +
                    std::to_string(loop.validations) + " vs " +
                    std::to_string(run.validations) + ")");
      }
      sampler_calls = tracer.Count("sampler", mark);
      validator_calls = tracer.Count("validator", mark);
      loop.fds = FDSet();
      last = std::move(loop);
      ReleaseFreedMemory();
    }
    result.AddAttempted(op_ms.size() + traced);
    tracer.WriteJson(args.workdir + "/trace-" + args.workload + "-" +
                     std::to_string(args.seed) + ".json");

    const double untraced_s = Median(op_ms) / 1e3;
    result.Set("data.load_s", Median(layer_s["data.load"]), "s");
    result.Set("preprocess.s", Median(layer_s["preprocess"]), "s");
    result.Set("preprocess.bytes", static_cast<double>(last.preprocess_bytes), "bytes");
    result.Set("sampler.s", Median(layer_s["sampler"]), "s");
    result.Set("sampler.calls", static_cast<double>(sampler_calls), "count");
    result.Set("sampler.comparisons", static_cast<double>(last.comparisons), "count");
    result.Set("sampler.non_fds", static_cast<double>(last.non_fds), "count");
    result.Set("sampler.yield",
               last.comparisons > 0 ? static_cast<double>(last.non_fds) /
                                          static_cast<double>(last.comparisons)
                                    : 0.0,
               "ratio");
    result.Set("sampler.cover_bytes", static_cast<double>(last.cover_bytes), "bytes");
    result.Set("inductor.s", Median(layer_s["inductor"]), "s");
    result.Set("inductor.non_fds_folded", static_cast<double>(last.non_fds_folded), "count");
    result.Set("fdtree.nodes", static_cast<double>(last.tree_nodes), "count");
    result.Set("fdtree.bytes", static_cast<double>(last.tree_bytes), "bytes");
    result.Set("fdtree.to_fdset_s", Median(layer_s["fdtree.to_fdset"]), "s");
    result.Set("validator.s", Median(layer_s["validator"]), "s");
    result.Set("validator.calls", static_cast<double>(validator_calls), "count");
    result.Set("validator.validations", static_cast<double>(last.validations), "count");
    result.Set("validator.levels", last.levels, "count");
    result.Set("validator.invalid_ratio",
               last.validations > 0 ? static_cast<double>(last.invalid) /
                                         static_cast<double>(last.validations)
                                   : 0.0,
               "ratio");
    const uint64_t probes = last.cache_hits + last.cache_misses;
    result.Set("pli_cache.hit_rate",
               probes > 0 ? static_cast<double>(last.cache_hits) /
                                static_cast<double>(probes)
                          : 0.0,
               "ratio");
    result.Set("loop.iterations", last.iterations, "count");
    result.Set("discover.first_s", first_seconds, "s");
    result.Set("trace.overhead_pct", 100.0 * (Median(traced_s) - untraced_s) / untraced_s, "%");
    result.Set("trace.unattributed_pct", Median(unattributed), "%");
  }

  std::string ops;
  for (double ms : op_ms) ops += " " + std::to_string(static_cast<int>(ms));
  std::fprintf(stderr, "perfbench: operation ms:%s\n", ops.c_str());

  // Correctness gate, outside the measured region: every operation returned
  // the warm-up's FD set, and that set is the independent oracle's answer.
  if (mismatched > 0) {
    result.Fail("discovery returned a different FD set than the warm-up run",
                mismatched);
  }
  hyfd::Timer oracle_timer;
  const FDSet expected =
      hyfd::FindAlgorithm(spec.oracle).run(hyfd::ReadCsvFile(csv_path), {});
  std::fprintf(stderr, "perfbench: oracle %s: %zu FDs in %.2f s\n", spec.oracle,
               expected.size(), oracle_timer.ElapsedSeconds());
  std::filesystem::remove(csv_path);
  if (!is_reference(expected)) {
    result.Fail(std::string("HyFD disagrees with ") + spec.oracle + " (" +
                    std::to_string(reference_size) + " vs " +
                    std::to_string(expected.size()) + " FDs)",
                result.attempted() - result.failed());
  }
  if (!args.trace) {
    result.Set("success_rate",
               1.0 - static_cast<double>(result.failed()) /
                         static_cast<double>(result.attempted()),
               "ratio");
  }
  return result;
}

}  // namespace perfbench
