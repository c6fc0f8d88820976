#ifndef PLANBENCH_TRACE_H_
#define PLANBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace planbench {

/// In-memory span recorder of the traced run. Spans are recorded by the
/// benchmark around its calls into the library's public functions; nothing
/// inside the library is instrumented. Each client thread records into its
/// own buffer (installed with Tracer::Attach), so recording takes no lock.
/// Every span carries its op id, its parent span and its layer; the spans
/// of one op are properly nested on one thread, which is what makes
/// per-layer self time well defined.
class Tracer {
 public:
  struct Span {
    int64_t op = 0;
    int32_t parent = -1;  // index in the same thread buffer, -1 = op root
    const char* name = "";
    const char* layer = "";
    double start_us = 0.0;
    double end_us = 0.0;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Makes the calling thread record into a fresh buffer of this tracer
  /// until Detach (or until another Attach).
  void Attach();
  static void Detach();

  /// True when the calling thread records spans.
  static bool Active();

  /// Opens an op on the calling thread: a root span named `kind` in layer
  /// "client". `breakdown` ops split every stage into its own span (the
  /// replayed sessions and the ordering episodes); only they feed the
  /// per-layer self-time shares.
  static void BeginOp(const char* kind, bool breakdown);
  static void EndOp();

  /// Opens / closes a span on the calling thread (no-ops when inactive).
  static int32_t Push(const char* name, const char* layer);
  static void Pop(int32_t index);

  /// Writes every recorded span as one JSON line each.
  bool WriteJsonLines(const std::string& path) const;

  /// Aggregates over every recorded op.
  struct Summary {
    /// Span durations in microseconds, by span name (all ops).
    std::map<std::string, std::vector<double>> durations_us;
    /// Self time (duration minus the child spans it covers) summed by
    /// layer and by span name, over breakdown ops only.
    std::map<std::string, double> self_us_by_layer;
    std::map<std::string, double> self_us_by_name;
    /// Summed root-span durations of the breakdown ops.
    double breakdown_root_us = 0.0;
    int64_t breakdown_ops = 0;
    int64_t ops = 0;
    int64_t spans = 0;
    /// Largest |sum of an op's self times - its root duration|, in us.
    double max_self_sum_error_us = 0.0;
  };
  Summary Summarize() const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<int32_t> open;  // stack of open span indices
    std::vector<int32_t> roots;  // root span index of every op
    std::vector<uint8_t> root_breakdown;  // parallel to roots
    int64_t op = -1;
  };

  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span: records `name` in `layer` for its lifetime when the calling
/// thread is traced.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* layer)
      : index_(Tracer::Push(name, layer)) {}
  ~ScopedSpan() { Tracer::Pop(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_;
};

}  // namespace planbench

#endif  // PLANBENCH_TRACE_H_
