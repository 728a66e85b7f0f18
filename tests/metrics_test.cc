#include "util/metrics.h"

#include <gtest/gtest.h>

namespace harmony {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStatTest, MeanMinMaxSum) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 6.0}) s.Add(x);
  EXPECT_EQ(s.count(), 3);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.sum(), 12.0);
}

TEST(RunningStatTest, VarianceMatchesDefinition) {
  RunningStat s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  // Population variance of {1,2,3,4} = 1.25.
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStatTest, ResetClears) {
  RunningStat s;
  s.Add(10.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
}

}  // namespace
}  // namespace harmony
