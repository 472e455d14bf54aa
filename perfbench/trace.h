// Span recorder for the traced runs. Spans are recorded by the benchmark
// around its calls into the library's public functions; nothing inside the
// library is instrumented. Spans stay in memory and are written out once,
// at the end of the run.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Single-threaded: every traced call sequence in the benchmark runs on one
/// thread, so a span's children never overlap and its self time is its
/// duration minus the sum of its children's durations.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;  ///< seconds, NowSeconds() clock
    double end = 0;
    int parent = -1;   ///< index into spans(), -1 for a root
    uint64_t request = 0;
    double duration() const { return end - start; }
  };

  /// RAII span; a null tracer records nothing, so untraced call paths share
  /// the traced code.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }
  // The queries below consider the spans recorded from index `from` on
  // (a spans().size() value taken earlier), so one tracer can hold many
  // repetitions and still be read per repetition.

  /// Sum of self times of every span called `name`.
  double SelfSeconds(std::string_view name, size_t from = 0) const;
  double TotalSeconds(std::string_view name, size_t from = 0) const;
  size_t Count(std::string_view name, size_t from = 0) const;
  /// Self time of the spans called `root` as a percentage of their duration:
  /// time inside the root that no layer span accounts for.
  double UnattributedPct(std::string_view root, size_t from = 0) const;

  /// Writes {"spans": [...]} with one object per span.
  void WriteJson(const std::string& path) const;

 private:
  int Begin(std::string_view name, uint64_t request);
  void End(int id);
  std::vector<double> ChildSeconds() const;

  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
