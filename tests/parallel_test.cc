// Determinism and thread-safety tests for the parallel Phase-1 pipeline:
// the same FDs, stats, sampler batches, witnesses, and negative covers must
// come out bit-identical for every thread count. Run under TSan via the
// "concurrency" ctest label, the sweeps below also cover the lock-free
// window scan over the read-only cover.

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "core/hyfd.h"
#include "core/hyucc.h"
#include "core/preprocessor.h"
#include "core/sampler.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace hyfd {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool: the nested-blocking-call deadlock guard
// ---------------------------------------------------------------------------

TEST(ThreadPoolGuardTest, NestedParallelForFromWorkerThrows) {
  // A blocking parallel call from inside a pool task can deadlock a fully
  // loaded pool (thread_pool.h); the hazard used to be a doc comment, now
  // it is a contract. Every blocking entry point must fire it; the
  // exception is caught *inside* the task (an escaping exception would
  // terminate the worker thread).
  ThreadPool pool(2);
  std::atomic<int> violations{0};
  std::atomic<int> ran{0};
  pool.ParallelFor(4, [&](size_t) {
    ran.fetch_add(1);
    try {
      pool.ParallelFor(2, [](size_t) {});
    } catch (const ContractViolation&) {
      violations.fetch_add(1);
    }
    try {
      pool.ParallelForDynamic(2, 1, [](size_t) {});
    } catch (const ContractViolation&) {
      violations.fetch_add(1);
    }
    try {
      pool.ParallelForRanges(2, 1, [](size_t, size_t) {});
    } catch (const ContractViolation&) {
      violations.fetch_add(1);
    }
    try {
      pool.WaitIdle();
    } catch (const ContractViolation&) {
      violations.fetch_add(1);
    }
  });
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(violations.load(), 4 * 4);  // all four blocking calls, all tasks

  // Empty parallel calls never block (they submit nothing and return), so
  // they stay permitted from workers — the guard targets the blocking wait.
  std::atomic<int> empty_ok{0};
  pool.ParallelFor(2, [&](size_t) {
    pool.ParallelFor(0, [](size_t) { FAIL() << "no iterations expected"; });
    pool.ParallelForRanges(0, 1, [](size_t, size_t) {});
    empty_ok.fetch_add(1);
  });
  EXPECT_EQ(empty_ok.load(), 2);

  // The pool is still fully operational after the contract violations.
  std::atomic<int> sum{0};
  pool.ParallelFor(8, [&](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 28);

  // From a non-worker thread the same calls are legal.
  EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), ThreadPool::kNotAWorker);
  pool.WaitIdle();
}

// ---------------------------------------------------------------------------
// Sampler: parallel == serial, bit for bit
// ---------------------------------------------------------------------------

TEST(ParallelStressTest, SamplerBatchIdenticalWithPool) {
  Relation r = GenerateFdReduced(4000, 10, 8, /*seed=*/9);
  PreprocessedData data = Preprocess(r);

  Sampler serial(&data, 0.001);
  auto serial_batch = serial.Run({});

  ThreadPool pool(8);
  Sampler parallel(&data, 0.001, SamplingStrategy::kClusterWindowing, &pool);
  auto parallel_batch = parallel.Run({});

  // Not just the same set — the same order (the canonical batch sort).
  ASSERT_EQ(serial_batch.size(), parallel_batch.size());
  for (size_t i = 0; i < serial_batch.size(); ++i) {
    EXPECT_EQ(serial_batch[i], parallel_batch[i]) << "batch index " << i;
  }
  EXPECT_EQ(serial.total_comparisons(), parallel.total_comparisons());
  EXPECT_EQ(serial.num_non_fds(), parallel.num_non_fds());
  // One plain set with the same contents, filled in the same insert order.
  EXPECT_EQ(serial.NegativeCoverBytes(), parallel.NegativeCoverBytes());
}

TEST(ParallelStressTest, SamplerWitnessesIdenticalWithPool) {
  // Each agree set's witness is its first pair in comparison order, so the
  // witnessed batch — suggestion replay included — matches the serial one
  // element for element, (agree, a, b), for every pool size.
  Relation r = GenerateFdReduced(20000, 8, 8, /*seed=*/21);
  PreprocessedData data = Preprocess(r);
  const std::vector<std::pair<RecordId, RecordId>> suggestions = {
      {0, 1}, {2, 19999}, {17, 2048}};

  Sampler serial(&data, 0.001);
  auto expected_first = serial.RunWithWitnesses({});
  auto expected_second = serial.RunWithWitnesses(suggestions);
  ASSERT_FALSE(expected_first.empty());

  const auto expect_same = [](const std::vector<SampledNonFd>& expected,
                              const std::vector<SampledNonFd>& actual,
                              const std::string& context) {
    ASSERT_EQ(expected.size(), actual.size()) << context;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].agree, actual[i].agree) << context << " #" << i;
      EXPECT_EQ(expected[i].a, actual[i].a) << context << " #" << i;
      EXPECT_EQ(expected[i].b, actual[i].b) << context << " #" << i;
    }
  };
  for (size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    Sampler parallel(&data, 0.001, SamplingStrategy::kClusterWindowing, &pool);
    const std::string context = std::to_string(threads) + " threads";
    expect_same(expected_first, parallel.RunWithWitnesses({}),
                context + ", phase 1");
    expect_same(expected_second, parallel.RunWithWitnesses(suggestions),
                context + ", phase 2");
    EXPECT_EQ(serial.total_comparisons(), parallel.total_comparisons())
        << context;
    EXPECT_EQ(serial.NegativeCoverBytes(), parallel.NegativeCoverBytes())
        << context;
  }
}

TEST(ParallelStressTest, SamplingHeavyDiscoveryMatchesSerial) {
  // A low threshold keeps the run in Phase 1 for many windows — the densest
  // concurrent traffic on the read-only cover and the parallel window path.
  Relation r = GenerateFdReduced(2500, 8, 12, /*seed=*/5);
  HyFdConfig serial_config;
  serial_config.efficiency_threshold = 0.0001;
  HyFd serial(serial_config);
  FDSet expected = serial.Discover(r);

  HyFdConfig parallel_config = serial_config;
  parallel_config.num_threads = 8;
  HyFd parallel(parallel_config);
  FDSet actual = parallel.Discover(r);

  testing::ExpectSameFds(expected, actual, "sampling-heavy, 8 threads");
  EXPECT_EQ(serial.stats().comparisons, parallel.stats().comparisons);
  EXPECT_EQ(serial.stats().non_fds, parallel.stats().non_fds);
}

// ---------------------------------------------------------------------------
// Full-pipeline determinism sweep over the dataset registry
// ---------------------------------------------------------------------------

TEST(ParallelDeterminismTest, RegistrySweepIdenticalAcrossThreadCounts) {
  for (const DatasetSpec& spec : PaperDatasets()) {
    const size_t rows = std::min<size_t>(spec.default_rows, 800);
    const int columns = std::min(spec.columns, 10);
    Relation r = MakeDataset(spec.name, rows, columns);

    HyFdConfig config;
    HyFd baseline(config);
    FDSet expected = baseline.Discover(r);

    for (int threads : {2, 8}) {
      HyFdConfig parallel_config;
      parallel_config.num_threads = threads;
      HyFd parallel(parallel_config);
      FDSet actual = parallel.Discover(r);
      testing::ExpectSameFds(expected, actual,
                             spec.name + " @ " + std::to_string(threads) +
                                 " threads");
      EXPECT_EQ(baseline.stats().comparisons, parallel.stats().comparisons)
          << spec.name << " @ " << threads << " threads";
      EXPECT_EQ(baseline.stats().non_fds, parallel.stats().non_fds)
          << spec.name << " @ " << threads << " threads";
      EXPECT_EQ(baseline.stats().num_fds, parallel.stats().num_fds)
          << spec.name << " @ " << threads << " threads";
    }
  }
}

TEST(ParallelDeterminismTest, HyUccIdenticalAcrossThreadCounts) {
  Relation r = testing::RandomRelation(6, 200, /*seed=*/77, 3);
  HyUcc baseline;
  auto expected = baseline.Discover(r);

  for (int threads : {2, 8}) {
    HyUccConfig config;
    config.num_threads = threads;
    HyUcc parallel(config);
    auto actual = parallel.Discover(r);
    EXPECT_EQ(expected, actual) << threads << " threads";
    EXPECT_EQ(baseline.stats().comparisons, parallel.stats().comparisons)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace hyfd
