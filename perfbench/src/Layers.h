//===- perfbench/src/Layers.h - Layer timers from outside -------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Timers the benchmark wraps around the calls it makes into each layer;
/// nothing here reaches inside the program.
///
///  * TimedPolicy forwards core::BoundaryPolicy and times chooseBoundary.
///    It hands the inner policy a TimedDemographics in place of the
///    request's provider, which counts (and, when traced, times) every
///    demographics query, so policy self time is the decision minus its
///    queries.
///  * SampledTimer times one call in every Period of a hot call site
///    (allocation, write barrier) and scales the sum up, because timing
///    every call would double the cost of the calls it measures.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_PERFBENCH_LAYERS_H
#define DTB_PERFBENCH_LAYERS_H

#include "Bench.h"

#include "core/BoundaryPolicy.h"

#include <memory>
#include <string>

namespace perfbench {

/// Calls into one layer and the wall time they took.
struct LayerTotals {
  uint64_t Calls = 0;
  uint64_t Nanos = 0;
};

/// Forwards demographics queries, counting them and, when \p Timed,
/// timing each one.
class TimedDemographics final : public dtb::core::Demographics {
public:
  TimedDemographics(const dtb::core::Demographics &Inner, bool Timed,
                    LayerTotals &Totals)
      : Inner(Inner), Timed(Timed), Totals(Totals) {}

  uint64_t liveBytesBornAfter(dtb::core::AllocClock Boundary) const override;
  uint64_t
  residentBytesBornAfter(dtb::core::AllocClock Boundary) const override;

private:
  const dtb::core::Demographics &Inner;
  bool Timed;
  LayerTotals &Totals;
};

/// Forwards a boundary policy, timing each decision and swapping the
/// request's demographics for a TimedDemographics. The wall clock at the
/// entry to the latest decision is kept for callers that time a
/// collection from outside the program.
class TimedPolicy final : public dtb::core::BoundaryPolicy {
public:
  explicit TimedPolicy(std::unique_ptr<dtb::core::BoundaryPolicy> Inner)
      : Inner(std::move(Inner)) {}

  std::string name() const override { return Inner->name(); }
  dtb::core::AllocClock
  chooseBoundary(const dtb::core::BoundaryRequest &Request) override;
  void reset() override { Inner->reset(); }

  /// Times each demographics query too (the traced run only).
  void setTimedQueries(bool Timed) { TimedQueries = Timed; }

  /// Decisions, with their whole wall time (queries included).
  LayerTotals Decisions;
  /// Demographics queries; Nanos is 0 unless queries are timed.
  LayerTotals Queries;
  uint64_t LastEntryNanos = 0;

private:
  std::unique_ptr<dtb::core::BoundaryPolicy> Inner;
  bool TimedQueries = false;
};

/// Times one call in every Period through run(); the estimate scales the
/// sampled time by calls / samples. Each sample reads the clock three
/// times, a, b, F(), c, and bills (c - b) - (b - a): the cost of one clock
/// read, measured right there, comes off the call's time.
class SampledTimer {
public:
  static constexpr uint64_t Period = 32;

  template <class Fn> decltype(auto) run(Fn &&F) {
    if ((Calls++ % Period) != 0)
      return F();
    uint64_t Before = nowNanos();
    uint64_t Begin = nowNanos();
    struct Stamp {
      SampledTimer &T;
      uint64_t Read;
      uint64_t Begin;
      ~Stamp() {
        uint64_t Spent = nowNanos() - Begin;
        T.SampledNanos += Spent > Read ? Spent - Read : 0;
        T.Samples += 1;
      }
    } S{*this, Begin - Before, Begin};
    return F();
  }

  uint64_t calls() const { return Calls; }
  /// Estimated wall time of all calls.
  double estimatedSeconds() const {
    if (Samples == 0)
      return 0.0;
    return nanosToSeconds(SampledNanos) * static_cast<double>(Calls) /
           static_cast<double>(Samples);
  }
  void mergeFrom(const SampledTimer &Other) {
    Calls += Other.Calls;
    Samples += Other.Samples;
    SampledNanos += Other.SampledNanos;
  }

private:
  uint64_t Calls = 0;
  uint64_t Samples = 0;
  uint64_t SampledNanos = 0;
};

} // namespace perfbench

#endif // DTB_PERFBENCH_LAYERS_H
