#ifndef PLANORDER_BENCH_ALLOC_COUNTER_H_
#define PLANORDER_BENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace planorder::bench {

/// Heap allocations made through the global operator new since the process
/// started: the calls and the bytes they asked for. alloc_counter.cc
/// replaces the global operator new/delete to count them; it is linked only
/// into the binaries that measure allocations (bench_runtime_resilience,
/// kernel_alloc_test and metrics_merge_test), never into the library. Heap
/// traffic is exact and repeatable where wall clock on a shared host is not.
struct AllocationCount {
  int64_t allocations = 0;
  int64_t bytes = 0;
};

AllocationCount AllocationsSoFar();

}  // namespace planorder::bench

#endif  // PLANORDER_BENCH_ALLOC_COUNTER_H_
