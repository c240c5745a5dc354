//===- support/Statistics.h - Streaming and sampled statistics -*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistics utilities used throughout the simulator and benchmarks:
///
///  * RunningStats        — streaming count/mean/min/max/variance.
///  * TimeWeightedStats   — mean of a piecewise-constant signal over a
///                          monotone clock (the paper's "mean memory").
///  * SampleSet           — stores samples; exact percentiles (median, 90th).
///  * Histogram           — fixed-width linear histogram for reports.
///  * LogBucketing        — shared geometry for log-scaled (HDR-style)
///                          histograms: octaves split into linear
///                          sub-buckets, bounded relative error.
///  * quantileFromBucketCounts — nearest-rank quantiles over bucketed
///                          counts, consistent with SampleSet::quantile.
///
/// This file is the single home of histogram/quantile math; the telemetry
/// subsystem's histograms (telemetry/Metrics.h) delegate to LogBucketing
/// and quantileFromBucketCounts rather than reimplementing them.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_SUPPORT_STATISTICS_H
#define DTB_SUPPORT_STATISTICS_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace dtb {

/// Streaming univariate statistics (Welford's algorithm for the variance).
class RunningStats {
public:
  /// Adds one observation.
  void add(double X) {
    Count += 1;
    double Delta = X - Mean;
    Mean += Delta / static_cast<double>(Count);
    M2 += Delta * (X - Mean);
    if (X < Min)
      Min = X;
    if (X > Max)
      Max = X;
  }

  uint64_t count() const { return Count; }
  /// Returns the mean, or 0 if no observations were added.
  double mean() const { return Count == 0 ? 0.0 : Mean; }
  /// Returns the minimum, or 0 if empty.
  double min() const { return Count == 0 ? 0.0 : Min; }
  /// Returns the maximum, or 0 if empty.
  double max() const { return Count == 0 ? 0.0 : Max; }
  /// Returns the population variance, or 0 with fewer than two samples.
  double variance() const {
    return Count < 2 ? 0.0 : M2 / static_cast<double>(Count);
  }
  double stddev() const;

private:
  uint64_t Count = 0;
  double Mean = 0.0;
  double M2 = 0.0;
  double Min = std::numeric_limits<double>::infinity();
  double Max = -std::numeric_limits<double>::infinity();
};

/// Integrates a piecewise-constant signal over a monotone clock so its
/// time-weighted mean and maximum can be reported. This is how the paper's
/// "mean memory allocated" is computed: the heap size is constant between
/// events and the clock is bytes allocated.
///
/// Usage: call setLevel(Clock, V) at every point the signal changes (the
/// signal holds value V from Clock until the next call), then finish(End)
/// to close the final interval.
class TimeWeightedStats {
public:
  /// Declares that the signal has value \p Value from \p Clock onward. The
  /// interval since the previous call is credited with the previous value.
  /// Clocks must be non-decreasing.
  void setLevel(uint64_t Clock, double Value);

  /// Closes the trailing interval at \p Clock with the current value.
  void finish(uint64_t Clock) { setLevel(Clock, Current); }

  /// Returns the time-weighted mean over the covered interval (0 if the
  /// clock never advanced).
  double mean() const {
    return ElapsedTotal == 0 ? 0.0
                             : Integral / static_cast<double>(ElapsedTotal);
  }
  /// Returns the maximum value ever set (including zero-duration levels).
  double max() const { return Max; }
  /// Returns the total clock distance covered.
  uint64_t elapsed() const { return ElapsedTotal; }

private:
  bool HaveOrigin = false;
  uint64_t LastClock = 0;
  uint64_t ElapsedTotal = 0;
  double Current = 0.0;
  double Integral = 0.0;
  double Max = 0.0;
};

/// Collects samples and answers exact order statistics. Used for the pause
/// time tables (median and 90th percentile over all scavenges).
class SampleSet {
public:
  void add(double X) { Samples.push_back(X); }
  size_t size() const { return Samples.size(); }
  bool empty() const { return Samples.empty(); }

  /// Returns the \p Q quantile (0 <= Q <= 1) using nearest-rank on a sorted
  /// copy: quantile(0.5) is the median, quantile(0.9) the 90th percentile.
  /// Q is clamped into [0, 1] and the rank into [1, size()], so
  /// quantile(0.0) is the minimum and quantile(1.0) the maximum even on a
  /// single sample (and a caller-side rounding error past 1.0 cannot index
  /// out of range). Returns 0 for an empty set.
  double quantile(double Q) const;

  double median() const { return quantile(0.5); }
  double percentile90() const { return quantile(0.9); }
  double sum() const;
  double mean() const;
  double maxValue() const;

  const std::vector<double> &samples() const { return Samples; }

private:
  std::vector<double> Samples;
};

/// A fixed-width linear histogram over [Lo, Hi); out-of-range samples land
/// in saturating end buckets.
class Histogram {
public:
  Histogram(double Lo, double Hi, size_t NumBuckets);

  void add(double X);
  size_t bucketCount() const { return Counts.size(); }
  uint64_t bucketValue(size_t I) const { return Counts[I]; }
  /// Returns the inclusive lower edge of bucket \p I.
  double bucketLow(size_t I) const;
  uint64_t totalCount() const { return Total; }

private:
  double Lo;
  double Hi;
  double Width;
  uint64_t Total = 0;
  std::vector<uint64_t> Counts;
};

/// Bucket geometry for log-scaled histograms in the HDR style: values below
/// \p Unit land in bucket 0; above that, each octave [Unit*2^k, Unit*2^(k+1))
/// is split into \p SubBuckets linear sub-buckets, so the relative width of
/// any bucket is at most 1/SubBuckets. The top bucket saturates. Only the
/// geometry lives here (value -> bucket, bucket -> bounds); storage is the
/// caller's (plain counters here, atomics in telemetry/Metrics.h).
class LogBucketing {
public:
  /// \p Unit is the width of bucket 0 (the smallest resolvable value),
  /// \p SubBuckets the linear subdivisions per octave, \p Octaves the number
  /// of doublings covered before the top bucket saturates.
  explicit LogBucketing(double Unit = 1.0, unsigned SubBuckets = 8,
                        unsigned Octaves = 48);

  size_t numBuckets() const { return NumBuckets; }
  /// Bucket index for \p X (negative values count as 0; huge values land in
  /// the saturating top bucket).
  size_t bucketFor(double X) const;
  /// Inclusive lower bound of bucket \p I.
  double bucketLow(size_t I) const;
  /// Exclusive upper bound of bucket \p I (the top bucket reports infinity).
  double bucketHigh(size_t I) const;
  /// Representative value of bucket \p I (midpoint; used for quantiles).
  double bucketMid(size_t I) const;

  double unit() const { return Unit; }
  unsigned subBuckets() const { return SubBuckets; }
  /// Worst-case relative half-width of any finite bucket: a quantile read
  /// from bucketed counts is within this fraction of the exact sample.
  double relativeError() const { return 0.5 / static_cast<double>(SubBuckets); }

private:
  double Unit;
  unsigned SubBuckets;
  unsigned Octaves;
  size_t NumBuckets;
};

/// Nearest-rank quantile over per-bucket counts laid out by \p Bucketing
/// (the same rank convention as SampleSet::quantile): finds the bucket
/// holding the ceil(Q*Total)-th smallest sample and returns its midpoint.
/// \p Counts must have Bucketing.numBuckets() entries summing to \p Total.
/// Returns 0 when Total is 0.
double quantileFromBucketCounts(const LogBucketing &Bucketing,
                                const uint64_t *Counts, uint64_t Total,
                                double Q);

} // namespace dtb

#endif // DTB_SUPPORT_STATISTICS_H
