#include <gtest/gtest.h>

#include "exec/mediator.h"

namespace planorder::exec {
namespace {

RuntimeAccounting Sample(int64_t scale, double latency) {
  RuntimeAccounting a;
  a.retries = 1 * scale;
  a.transient_failures = 2 * scale;
  a.permanent_failures = 4 * scale;
  a.hedged_calls = 5 * scale;
  a.latency_ms_total = latency;
  a.latency_ms_max = latency / 2.0;
  return a;
}

TEST(RuntimeAccountingTest, MergeSumsCountersAndMaxesLatencyPeak) {
  RuntimeAccounting a = Sample(1, 10.0);
  const RuntimeAccounting b = Sample(10, 4.0);
  a.Merge(b);
  EXPECT_EQ(a.retries, 11);
  EXPECT_EQ(a.transient_failures, 22);
  EXPECT_EQ(a.permanent_failures, 44);
  EXPECT_EQ(a.hedged_calls, 55);
  EXPECT_DOUBLE_EQ(a.latency_ms_total, 14.0);
  // Peak is a max, not a sum: 10/2 dominates 4/2.
  EXPECT_DOUBLE_EQ(a.latency_ms_max, 5.0);
}

}  // namespace
}  // namespace planorder::exec
