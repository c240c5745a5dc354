//===- support/Statistics.cpp ---------------------------------------------==//

#include "support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

using namespace dtb;

double RunningStats::stddev() const { return std::sqrt(variance()); }

void TimeWeightedStats::setLevel(uint64_t Clock, double Value) {
  if (Value > Max)
    Max = Value;
  if (!HaveOrigin) {
    HaveOrigin = true;
    LastClock = Clock;
    Current = Value;
    return;
  }
  assert(Clock >= LastClock && "clock moved backwards");
  uint64_t Dt = Clock - LastClock;
  Integral += Current * static_cast<double>(Dt);
  ElapsedTotal += Dt;
  LastClock = Clock;
  Current = Value;
}

double SampleSet::quantile(double Q) const {
  if (Samples.empty())
    return 0.0;
  Q = std::clamp(Q, 0.0, 1.0);
  std::vector<double> Sorted(Samples);
  // Nearest-rank: the ceil(Q*N)-th smallest sample (1-based), so the median
  // of {1,2,3,4} is 2 and quantile(1.0) is the maximum. The rank is clamped
  // into [1, N]: Q = 0 rounds down to rank 0 and Q = 1 can round up to
  // N + 1 in floating point, both of which would index out of range — on a
  // single sample, p0 and p100 must both return that sample.
  size_t Rank = static_cast<size_t>(
      std::ceil(Q * static_cast<double>(Sorted.size())));
  Rank = std::clamp<size_t>(Rank, 1, Sorted.size());
  size_t Index = Rank - 1;
  std::nth_element(Sorted.begin(),
                   Sorted.begin() + static_cast<ptrdiff_t>(Index),
                   Sorted.end());
  return Sorted[Index];
}

double SampleSet::sum() const {
  return std::accumulate(Samples.begin(), Samples.end(), 0.0);
}

double SampleSet::mean() const {
  return Samples.empty() ? 0.0 : sum() / static_cast<double>(Samples.size());
}

double SampleSet::maxValue() const {
  if (Samples.empty())
    return 0.0;
  return *std::max_element(Samples.begin(), Samples.end());
}

Histogram::Histogram(double Lo, double Hi, size_t NumBuckets)
    : Lo(Lo), Hi(Hi), Width((Hi - Lo) / static_cast<double>(NumBuckets)),
      Counts(NumBuckets, 0) {
  assert(Hi > Lo && "histogram range must be nonempty");
  assert(NumBuckets > 0 && "histogram needs at least one bucket");
}

void Histogram::add(double X) {
  Total += 1;
  if (X < Lo) {
    Counts.front() += 1;
    return;
  }
  auto Index = static_cast<size_t>((X - Lo) / Width);
  if (Index >= Counts.size())
    Index = Counts.size() - 1;
  Counts[Index] += 1;
}

double Histogram::bucketLow(size_t I) const {
  assert(I < Counts.size() && "bucket index out of range");
  return Lo + Width * static_cast<double>(I);
}

LogBucketing::LogBucketing(double Unit, unsigned SubBuckets, unsigned Octaves)
    : Unit(Unit), SubBuckets(SubBuckets), Octaves(Octaves),
      NumBuckets(1 + static_cast<size_t>(SubBuckets) * Octaves + 1) {
  assert(Unit > 0.0 && "log bucketing needs a positive unit");
  assert(SubBuckets > 0 && Octaves > 0 && "degenerate log bucketing");
}

size_t LogBucketing::bucketFor(double X) const {
  if (!(X >= Unit)) // Also catches NaN and negatives.
    return 0;
  double Scaled = X / Unit;
  int Octave = std::ilogb(Scaled); // floor(log2), exact for our range.
  if (Octave >= static_cast<int>(Octaves))
    return NumBuckets - 1;
  // Position within the octave, linearly subdivided: Scaled / 2^Octave is
  // in [1, 2).
  double Frac = std::ldexp(Scaled, -Octave) - 1.0;
  auto Sub = static_cast<size_t>(Frac * static_cast<double>(SubBuckets));
  if (Sub >= SubBuckets) // Frac can round to 1.0 at an octave edge.
    Sub = SubBuckets - 1;
  return 1 + static_cast<size_t>(Octave) * SubBuckets + Sub;
}

double LogBucketing::bucketLow(size_t I) const {
  assert(I < NumBuckets && "bucket index out of range");
  if (I == 0)
    return 0.0;
  size_t Octave = (I - 1) / SubBuckets;
  size_t Sub = (I - 1) % SubBuckets;
  if (I == NumBuckets - 1)
    return Unit * std::ldexp(1.0, static_cast<int>(Octaves));
  return Unit * std::ldexp(1.0, static_cast<int>(Octave)) *
         (1.0 + static_cast<double>(Sub) / static_cast<double>(SubBuckets));
}

double LogBucketing::bucketHigh(size_t I) const {
  assert(I < NumBuckets && "bucket index out of range");
  if (I == 0)
    return Unit;
  if (I == NumBuckets - 1)
    return std::numeric_limits<double>::infinity();
  return bucketLow(I + 1);
}

double LogBucketing::bucketMid(size_t I) const {
  double Lo = bucketLow(I);
  double Hi = bucketHigh(I);
  if (!std::isfinite(Hi)) // Saturated top bucket: its lower edge.
    return Lo;
  return 0.5 * (Lo + Hi);
}

double dtb::quantileFromBucketCounts(const LogBucketing &Bucketing,
                                     const uint64_t *Counts, uint64_t Total,
                                     double Q) {
  if (Total == 0)
    return 0.0;
  Q = std::clamp(Q, 0.0, 1.0);
  // Same nearest-rank convention (and the same p0/p100 clamps) as
  // SampleSet::quantile, applied to bucketed counts.
  auto Rank = static_cast<uint64_t>(
      std::ceil(Q * static_cast<double>(Total)));
  Rank = std::clamp<uint64_t>(Rank, 1, Total);
  uint64_t Seen = 0;
  for (size_t I = 0, E = Bucketing.numBuckets(); I != E; ++I) {
    Seen += Counts[I];
    if (Seen >= Rank)
      return Bucketing.bucketMid(I);
  }
  assert(false && "bucket counts do not sum to Total");
  return Bucketing.bucketMid(Bucketing.numBuckets() - 1);
}
