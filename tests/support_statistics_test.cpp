//===- tests/support_statistics_test.cpp ----------------------------------==//
//
// Unit tests for support/Statistics.h: streaming stats, time-weighted
// integration (the paper's mean-memory metric), exact percentiles, and the
// fixed-width histogram.
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace dtb;

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_EQ(S.mean(), 0.0);
  EXPECT_EQ(S.min(), 0.0);
  EXPECT_EQ(S.max(), 0.0);
  EXPECT_EQ(S.variance(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats S;
  S.add(42.0);
  EXPECT_EQ(S.count(), 1u);
  EXPECT_DOUBLE_EQ(S.mean(), 42.0);
  EXPECT_DOUBLE_EQ(S.min(), 42.0);
  EXPECT_DOUBLE_EQ(S.max(), 42.0);
  EXPECT_EQ(S.variance(), 0.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats S;
  for (double X : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(X);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_DOUBLE_EQ(S.variance(), 4.0); // Classic textbook data set.
  EXPECT_DOUBLE_EQ(S.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
}

TEST(RunningStatsTest, NegativeValues) {
  RunningStats S;
  S.add(-3.0);
  S.add(3.0);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  EXPECT_DOUBLE_EQ(S.min(), -3.0);
  EXPECT_DOUBLE_EQ(S.max(), 3.0);
}

TEST(TimeWeightedStatsTest, ConstantSignal) {
  TimeWeightedStats S;
  S.setLevel(0, 5.0);
  S.finish(100);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_DOUBLE_EQ(S.max(), 5.0);
  EXPECT_EQ(S.elapsed(), 100u);
}

TEST(TimeWeightedStatsTest, StepSignalWeightsByDuration) {
  TimeWeightedStats S;
  S.setLevel(0, 10.0); // 10 for 90 ticks.
  S.setLevel(90, 100.0); // 100 for 10 ticks.
  S.finish(100);
  EXPECT_DOUBLE_EQ(S.mean(), (10.0 * 90 + 100.0 * 10) / 100.0);
  EXPECT_DOUBLE_EQ(S.max(), 100.0);
}

TEST(TimeWeightedStatsTest, ZeroDurationSpikeAffectsOnlyMax) {
  TimeWeightedStats S;
  S.setLevel(0, 1.0);
  S.setLevel(50, 999.0); // Spike...
  S.setLevel(50, 1.0);   // ...dropped at the same instant.
  S.finish(100);
  EXPECT_DOUBLE_EQ(S.mean(), 1.0);
  EXPECT_DOUBLE_EQ(S.max(), 999.0);
}

TEST(TimeWeightedStatsTest, NoElapsedTimeMeansZeroMean) {
  TimeWeightedStats S;
  S.setLevel(7, 3.0);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  EXPECT_DOUBLE_EQ(S.max(), 3.0);
}

TEST(SampleSetTest, MedianOfOddCount) {
  SampleSet S;
  for (double X : {5.0, 1.0, 3.0})
    S.add(X);
  EXPECT_DOUBLE_EQ(S.median(), 3.0);
}

TEST(SampleSetTest, NearestRankMedianOfEvenCount) {
  SampleSet S;
  for (double X : {1.0, 2.0, 3.0, 4.0})
    S.add(X);
  // Nearest-rank: ceil(0.5 * 4) = 2nd smallest.
  EXPECT_DOUBLE_EQ(S.median(), 2.0);
}

TEST(SampleSetTest, Percentile90) {
  SampleSet S;
  for (int I = 1; I <= 10; ++I)
    S.add(static_cast<double>(I));
  EXPECT_DOUBLE_EQ(S.percentile90(), 9.0);
  EXPECT_DOUBLE_EQ(S.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(S.quantile(0.0), 1.0);
}

TEST(SampleSetTest, EmptyQuantileIsZero) {
  SampleSet S;
  EXPECT_DOUBLE_EQ(S.median(), 0.0);
  EXPECT_DOUBLE_EQ(S.sum(), 0.0);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  EXPECT_DOUBLE_EQ(S.maxValue(), 0.0);
}

TEST(SampleSetTest, SumMeanMax) {
  SampleSet S;
  for (double X : {2.0, 4.0, 6.0})
    S.add(X);
  EXPECT_DOUBLE_EQ(S.sum(), 12.0);
  EXPECT_DOUBLE_EQ(S.mean(), 4.0);
  EXPECT_DOUBLE_EQ(S.maxValue(), 6.0);
}

TEST(SampleSetTest, SingleSampleExtremeQuantilesClamp) {
  // One sample: every quantile is that sample. ceil(0*1) would be rank 0;
  // the rank clamp into [1, size()] keeps p0 (and a rounding error past
  // 1.0) in range.
  SampleSet S;
  S.add(42.0);
  EXPECT_DOUBLE_EQ(S.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(S.median(), 42.0);
  EXPECT_DOUBLE_EQ(S.quantile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(S.quantile(1.0000000001), 42.0);
  EXPECT_DOUBLE_EQ(S.quantile(-0.5), 42.0);
}

TEST(HistogramTest, BucketsAndSaturation) {
  Histogram H(0.0, 10.0, 5);
  H.add(0.5);   // Bucket 0.
  H.add(3.0);   // Bucket 1.
  H.add(9.99);  // Bucket 4.
  H.add(-5.0);  // Below range -> bucket 0.
  H.add(100.0); // Above range -> bucket 4.
  EXPECT_EQ(H.totalCount(), 5u);
  EXPECT_EQ(H.bucketValue(0), 2u);
  EXPECT_EQ(H.bucketValue(1), 1u);
  EXPECT_EQ(H.bucketValue(2), 0u);
  EXPECT_EQ(H.bucketValue(4), 2u);
  EXPECT_DOUBLE_EQ(H.bucketLow(0), 0.0);
  EXPECT_DOUBLE_EQ(H.bucketLow(4), 8.0);
}

TEST(LogBucketingTest, GeometryRoundTrips) {
  LogBucketing B(1.0, 8, 48);
  // Every bucket's bounds contain its own midpoint, and bucketFor maps the
  // midpoint back to the bucket (the top saturating bucket aside).
  for (size_t I = 0; I + 1 < B.numBuckets(); ++I) {
    double Lo = B.bucketLow(I);
    double Hi = B.bucketHigh(I);
    double Mid = B.bucketMid(I);
    EXPECT_LT(Lo, Hi) << "bucket " << I;
    EXPECT_LE(Lo, Mid) << "bucket " << I;
    EXPECT_LT(Mid, Hi) << "bucket " << I;
    EXPECT_EQ(B.bucketFor(Mid), I) << "bucket " << I;
    EXPECT_EQ(B.bucketFor(Lo), I) << "bucket " << I;
  }
}

TEST(LogBucketingTest, EdgeValues) {
  LogBucketing B(1.0, 8, 48);
  EXPECT_EQ(B.bucketFor(-5.0), 0u); // Negatives land in bucket 0.
  EXPECT_EQ(B.bucketFor(0.0), 0u);
  EXPECT_EQ(B.bucketFor(1e300), B.numBuckets() - 1); // Top saturates.
  EXPECT_TRUE(std::isinf(B.bucketHigh(B.numBuckets() - 1)));
  EXPECT_DOUBLE_EQ(B.relativeError(), 0.5 / 8.0);
}

TEST(LogBucketingTest, RelativeWidthBound) {
  LogBucketing B(0.001, 16, 40);
  // Above the unit, no finite bucket is wider than its own bounds allow:
  // midpoint within relativeError of anything in the bucket.
  for (size_t I = 0; I + 1 < B.numBuckets(); ++I) {
    double Lo = B.bucketLow(I);
    if (Lo < B.unit())
      continue; // Bucket 0 has no relative guarantee.
    double HalfWidth = (B.bucketHigh(I) - Lo) / 2.0;
    EXPECT_LE(HalfWidth, B.bucketMid(I) * B.relativeError() * 1.0000001)
        << "bucket " << I;
  }
}

TEST(QuantileFromBucketCountsTest, MatchesExactSortWithinBucketWidth) {
  LogBucketing B(1.0, 8, 48);
  std::vector<uint64_t> Counts(B.numBuckets(), 0);
  SampleSet Exact;
  // A deterministic multi-octave spread.
  double X = 1.0;
  uint64_t Total = 0;
  for (int I = 0; I != 400; ++I) {
    Counts[B.bucketFor(X)] += 1;
    Exact.add(X);
    Total += 1;
    X *= 1.05;
  }
  for (double Q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    double Approx = quantileFromBucketCounts(B, Counts.data(), Total, Q);
    double Truth = Exact.quantile(Q);
    EXPECT_NEAR(Approx, Truth, Truth * 2.0 * B.relativeError())
        << "quantile " << Q;
  }
  EXPECT_DOUBLE_EQ(quantileFromBucketCounts(B, Counts.data(), 0, 0.5), 0.0);
}

TEST(SampleSetTest, AllEqualSamplesAtEveryQuantile) {
  // With identical samples every quantile must return exactly that value —
  // nearest-rank cannot interpolate its way to anything else, and the
  // result must be bitwise equal (no floating-point drift from averaging).
  SampleSet S;
  for (int I = 0; I != 17; ++I)
    S.add(3.25);
  for (double Q : {0.0, 0.1, 0.5, 0.9, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(S.quantile(Q), 3.25) << "quantile " << Q;
  }
  EXPECT_DOUBLE_EQ(S.median(), 3.25);
  EXPECT_DOUBLE_EQ(S.mean(), 3.25);
  EXPECT_DOUBLE_EQ(S.maxValue(), 3.25);
}

TEST(SampleSetTest, EmptyAggregatesAreZero) {
  SampleSet S;
  EXPECT_DOUBLE_EQ(S.median(), 0.0);
  EXPECT_DOUBLE_EQ(S.percentile90(), 0.0);
  EXPECT_DOUBLE_EQ(S.sum(), 0.0);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  EXPECT_DOUBLE_EQ(S.maxValue(), 0.0);
}

TEST(HistogramTest, ExactBucketBoundaryValues) {
  // Bucket edges are inclusive-low / exclusive-high: a sample exactly on
  // an interior edge belongs to the bucket above it, Lo itself to bucket
  // 0, and Hi (the exclusive end of the range) saturates into the top
  // bucket.
  Histogram H(0.0, 10.0, 5);
  H.add(0.0);  // Lo -> bucket 0.
  H.add(2.0);  // Edge between buckets 0 and 1 -> bucket 1.
  H.add(8.0);  // Edge between buckets 3 and 4 -> bucket 4.
  H.add(10.0); // Hi -> saturates into the top bucket.
  EXPECT_EQ(H.bucketValue(0), 1u);
  EXPECT_EQ(H.bucketValue(1), 1u);
  EXPECT_EQ(H.bucketValue(3), 0u);
  EXPECT_EQ(H.bucketValue(4), 2u);
  EXPECT_EQ(H.totalCount(), 4u);
}

TEST(LogBucketingTest, ExactOctaveBoundaryValues) {
  LogBucketing B(1.0, 8, 48);
  // Inclusive lower bounds: the exact low edge of every finite bucket maps
  // back to that bucket, including octave starts (powers of two), and the
  // value just below an edge maps to the bucket beneath it.
  for (double Edge : {1.0, 2.0, 4.0, 1024.0}) {
    size_t I = B.bucketFor(Edge);
    EXPECT_DOUBLE_EQ(B.bucketLow(I), Edge) << Edge;
    EXPECT_EQ(B.bucketFor(std::nextafter(Edge, 0.0)), I - 1) << Edge;
  }
  // The unit boundary separates bucket 0 from the scaled region.
  EXPECT_EQ(B.bucketFor(std::nextafter(1.0, 0.0)), 0u);
  EXPECT_EQ(B.bucketFor(1.0), 1u);
}

TEST(QuantileFromBucketCountsTest, AllMassInOneBucket) {
  // All samples equal (one hot bucket): every quantile answers that
  // bucket's midpoint, and the answer is within the geometry's relative
  // error of the true sample.
  LogBucketing B(1.0, 8, 48);
  std::vector<uint64_t> Counts(B.numBuckets(), 0);
  const double Value = 37.0;
  Counts[B.bucketFor(Value)] = 1000;
  for (double Q : {0.0, 0.5, 1.0}) {
    double Answer = quantileFromBucketCounts(B, Counts.data(), 1000, Q);
    EXPECT_DOUBLE_EQ(Answer, B.bucketMid(B.bucketFor(Value))) << Q;
    EXPECT_NEAR(Answer, Value, Value * B.relativeError()) << Q;
  }
}
