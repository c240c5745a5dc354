//===- perfbench/src/Oracle.cpp -------------------------------------------==//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include <algorithm>

using namespace perfbench;
using dtb::trace::AllocationRecord;

LivenessOracle::LivenessOracle(
    const dtb::trace::Trace &T,
    const std::function<uint64_t(const AllocationRecord &)> &SizeOf) {
  const std::vector<AllocationRecord> &Records = T.records();
  Births.reserve(Records.size());
  BirthBytes.reserve(Records.size() + 1);
  BirthBytes.push_back(0);
  std::vector<std::pair<AllocClock, uint64_t>> Dying;
  for (const AllocationRecord &R : Records) {
    uint64_t Size = SizeOf(R);
    Births.push_back(R.Birth);
    BirthBytes.push_back(BirthBytes.back() + Size);
    if (R.Death != dtb::trace::NeverDies)
      Dying.push_back({R.Death, Size});
  }
  std::sort(Dying.begin(), Dying.end());
  Deaths.reserve(Dying.size());
  DeathBytes.reserve(Dying.size() + 1);
  DeathBytes.push_back(0);
  for (const auto &[Death, Size] : Dying) {
    Deaths.push_back(Death);
    DeathBytes.push_back(DeathBytes.back() + Size);
  }
}

LiveSet LivenessOracle::prefixAt(const std::vector<AllocClock> &Keys,
                                 const std::vector<uint64_t> &Prefix,
                                 AllocClock T) {
  size_t N = static_cast<size_t>(
      std::upper_bound(Keys.begin(), Keys.end(), T) - Keys.begin());
  return {N, Prefix[N]};
}

LiveSet LivenessOracle::liveAt(AllocClock Now) const {
  // A death at or before Now implies a birth at or before it, so the dead
  // are a subset of the born.
  LiveSet Born = prefixAt(Births, BirthBytes, Now);
  LiveSet Dead = prefixAt(Deaths, DeathBytes, Now);
  return {Born.Objects - Dead.Objects, Born.Bytes - Dead.Bytes};
}

LiveSet LivenessOracle::diesAfter(AllocClock Now) const {
  LiveSet Dead = prefixAt(Deaths, DeathBytes, Now);
  return {Births.size() - Dead.Objects, BirthBytes.back() - Dead.Bytes};
}
