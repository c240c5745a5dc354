//===- perfbench/src/RtThreads.cpp - Mutators on real threads -------------==//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// rt-threads: the multitenant scenario's three tenants (api, batch,
/// cache), one mutator thread each, every thread with its own
/// MutatorContext and its own root table, under mark-sweep and DTBMEM.
/// The thread whose allocation crosses the next trigger point requests
/// the collection through runAtSafepoint and times it, so the TLAB path,
/// the buffered barrier, the rendezvous and the publication step all run.
/// The unequal tenant weights make one thread the straggler.
///
/// rt-tlab is the same replay on one thread that runs all three tenants:
/// the same context paths without the scheduling of three busy threads,
/// whose tails on a shared 4-vCPU host are set by the host (see the
/// README).
///
/// Mark-sweep only: MutatorContext has no store-by-root-index operation,
/// so a thread cannot store through a rooted object while another thread
/// may move it.
///
/// The liveness model a collection is checked against is a lower bound:
/// each thread publishes its position before it starts a record, and the
/// model counts the records before that position minus every chain the
/// thread kills on reaching it. Wherever the world stops the thread, its
/// reachable set contains that model.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "RtInputs.h"
#include "Workloads.h"

#include "core/Policies.h"
#include "runtime/Heap.h"
#include "runtime/Mutator.h"

#include <atomic>
#include <cstring>
#include <thread>

using namespace perfbench;
using namespace dtb;

namespace {

constexpr uint64_t TotalBytes = 150'000'000;
constexpr uint64_t IntervalBytes = 256 * 1024;
constexpr size_t WarmupDivisor = 10;

/// One tenant's share of the input: its op indexes in birth order and the
/// model's live bytes at every position (size + 1).
struct TenantInput {
  std::vector<uint32_t> Ops;
  std::vector<uint64_t> ModelLive;
};

/// Deals the ops to \p Threads mutators: one tenant each, or every tenant
/// to the one mutator.
std::vector<TenantInput> splitByTenant(const RtInputs &In, unsigned Threads) {
  std::vector<TenantInput> Tenants(Threads);
  for (uint32_t I = 0; I != In.Ops.size(); ++I)
    Tenants[Threads == 1 ? 0 : In.TenantOf[I]].Ops.push_back(I);
  // Sweep each tenant's records: at position p the thread has allocated
  // records [0, p) and killed every chain up to record p's epoch.
  for (TenantInput &T : Tenants) {
    std::vector<uint64_t> BucketBytes(In.NumBuckets, 0);
    uint64_t Live = 0;
    uint32_t Killed = 0;
    T.ModelLive.reserve(T.Ops.size() + 1);
    for (size_t P = 0; P <= T.Ops.size(); ++P) {
      uint32_t Epoch =
          P == T.Ops.size() ? In.FinalEpoch : In.Ops[T.Ops[P]].Epoch;
      while (Killed < Epoch) {
        ++Killed;
        Live -= BucketBytes[Killed];
        BucketBytes[Killed] = 0;
      }
      T.ModelLive.push_back(Live);
      if (P != T.Ops.size()) {
        const RtOp &Op = In.Ops[T.Ops[P]];
        BucketBytes[Op.Bucket] += Op.Gross;
        Live += Op.Gross;
      }
    }
  }
  return Tenants;
}

/// One mutator thread's state during a pass. Its Stats hold what the
/// thread timed itself: its run time, its calls and the collections it
/// requested.
struct Worker {
  const TenantInput *Input = nullptr;
  std::unique_ptr<runtime::MutatorContext> Ctx;
  runtime::Object *Table = nullptr;
  std::atomic<size_t> Position{0};
  ReplayStats Stats;
  std::vector<double> Pauses;
};

/// What the collections of a pass saw inside the stopped world, whose
/// lock orders the threads that write it.
struct Collections {
  ReplayStats Stats;
  uint64_t ResidentMax = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems;
};

/// What one pass measured.
struct Pass {
  ReplayStats Stats;
  Collections Gc;
  std::vector<double> Pauses;
};

template <bool Traced>
void runWorker(Worker &Me, std::vector<Worker> &All, const RtInputs &In,
               size_t Limit, runtime::Heap &H,
               std::atomic<uint64_t> &NextTrigger, uint64_t TableGross,
               Collections &Gc) {
  runtime::MutatorContext &Ctx = *Me.Ctx;
  runtime::Object *Table = Me.Table;
  const TenantInput &T = *Me.Input;
  size_t Count = std::min(Limit, T.Ops.size());
  auto barrier = [&](runtime::Object *Source, uint32_t Slot,
                     runtime::Object *Value) {
    if constexpr (Traced)
      Me.Stats.Barrier.run([&] { Ctx.writeSlot(Source, Slot, Value); });
    else
      Ctx.writeSlot(Source, Slot, Value);
  };
  auto collectNow = [&] {
    uint64_t Requested = nowNanos();
    uint64_t Entered = 0;
    H.runAtSafepoint([&](runtime::Heap &Stopped) {
      Entered = nowNanos();
      Gc.ResidentMax = std::max(Gc.ResidentMax, Stopped.residentBytes());
      uint64_t Model = TableGross * All.size();
      for (const Worker &W : All)
        Model += W.Input->ModelLive[W.Position.load(std::memory_order_acquire)];
      core::ScavengeRecord Record = Stopped.collect();
      bool Covered = Stopped.residentBytes() >= Model;
      Gc.Failed += Covered ? 0 : 1;
      if (!Covered && Gc.Problems.size() < 20)
        Gc.Problems.push_back("collection " + std::to_string(Record.Index) +
                              " left " +
                              std::to_string(Stopped.residentBytes()) +
                              " resident bytes, below the model's " +
                              std::to_string(Model) + " live");
      Gc.Stats.Collections += 1;
      Gc.Stats.TracedBytes += Record.TracedBytes;
      Gc.Stats.ReclaimedBytes += Record.ReclaimedBytes;
      Gc.Stats.ObjectsTraced += Stopped.lastCollectionStats().ObjectsTraced;
      Gc.Stats.RemsetRoots +=
          Stopped.lastCollectionStats().RememberedSetRoots;
    });
    uint64_t Released = nowNanos();
    Me.Pauses.push_back(nanosToMillis(Released - Requested));
    Me.Stats.CollectNanos += Released - Requested;
    Me.Stats.RendezvousNanos += Entered - Requested;
  };

  uint64_t Begin = nowNanos();
  uint32_t Killed = 0;
  for (size_t P = 0; P != Count; ++P) {
    Me.Position.store(P, std::memory_order_release);
    uint32_t Index = T.Ops[P];
    const RtOp &Op = In.Ops[Index];
    while (Killed < Op.Epoch)
      barrier(Table, ++Killed, nullptr);
    size_t Root;
    if constexpr (Traced)
      Root = Me.Stats.Alloc.run(
          [&] { return Ctx.allocateRooted(1, Op.Gross - 32); });
    else
      Root = Ctx.allocateRooted(1, Op.Gross - 32);
    runtime::Object *O = Ctx.root(Root);
    uint64_t Tag = Index;
    std::memcpy(O->rawData(), &Tag, sizeof(Tag));
    barrier(O, 0, Table->slot(Op.Bucket));
    barrier(Table, Op.Bucket, O);
    Ctx.truncateRoots(1);

    uint64_t Next = NextTrigger.load(std::memory_order_relaxed);
    if (H.now() >= Next &&
        NextTrigger.compare_exchange_strong(
            Next, (H.now() / In.IntervalBytes + 1) * In.IntervalBytes,
            std::memory_order_acq_rel))
      collectNow();
  }
  // A whole replay ends by killing every chain up to the final epoch.
  uint32_t Final = Count == T.Ops.size() ? In.FinalEpoch : Killed;
  Me.Position.store(Count, std::memory_order_release);
  while (Killed < Final)
    barrier(Table, ++Killed, nullptr);
  Me.Stats.MutatorNanos = nowNanos() - Begin;
}

template <bool Traced>
Pass runPass(const RtWorkload &W, const std::vector<TenantInput> &Tenants,
             size_t Limit, uint64_t MemMaxBytes, RunResult *Result) {
  const RtInputs &In = W.In;
  Pass P;
  runtime::HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.Collector = runtime::CollectorKind::MarkSweep;
  runtime::Heap H(Config);
  core::PolicyConfig PolicyConfig;
  PolicyConfig.MemMaxBytes = MemMaxBytes;
  auto Owned = std::make_unique<TimedPolicy>(
      core::createPolicy("dtbmem", PolicyConfig));
  Owned->setTimedQueries(Traced);
  TimedPolicy &Policy = *Owned;
  H.setPolicy(std::move(Owned));

  std::vector<Worker> Workers(Tenants.size());
  uint64_t TableGross = 0;
  for (unsigned I = 0; I != Tenants.size(); ++I) {
    Worker &Wk = Workers[I];
    Wk.Input = &Tenants[I];
    Wk.Ctx = std::make_unique<runtime::MutatorContext>(H);
    Wk.Table = Wk.Ctx->root(Wk.Ctx->allocateRooted(In.NumBuckets, 0));
    TableGross = Wk.Table->grossBytes();
  }

  std::atomic<uint64_t> NextTrigger{H.now() + In.IntervalBytes};
  uint64_t Begin = nowNanos();
  {
    std::vector<std::thread> Threads;
    for (Worker &Wk : Workers)
      Threads.emplace_back([&, Wk = &Wk] {
        runWorker<Traced>(*Wk, Workers, In, Limit, H, NextTrigger, TableGross,
                          P.Gc);
      });
    for (std::thread &Th : Threads)
      Th.join();
  }
  ReplayStats &S = P.Stats;
  S = P.Gc.Stats;
  S.WallNanos = nowNanos() - Begin;
  S.Decisions = Policy.Decisions;
  S.Queries = Policy.Queries;
  for (Worker &Wk : Workers) {
    const runtime::MutatorContext::Stats &Ctx = Wk.Ctx->stats();
    S.AllocatedBytes += Ctx.AllocatedBytes;
    S.TlabRefills += Ctx.TlabRefills;
    S.BarrierFlushes += Ctx.BarrierFlushes;
    S.SafepointYields += Ctx.SafepointYields;
    S.MutatorNanos += Wk.Stats.MutatorNanos;
    S.CollectNanos += Wk.Stats.CollectNanos;
    S.RendezvousNanos += Wk.Stats.RendezvousNanos;
    S.Alloc.mergeFrom(Wk.Stats.Alloc);
    S.Barrier.mergeFrom(Wk.Stats.Barrier);
    P.Pauses.insert(P.Pauses.end(), Wk.Pauses.begin(), Wk.Pauses.end());
  }

  if (Result) {
    for (uint64_t I = 0; I != S.Collections; ++I)
      Result->operation(I >= P.Gc.Failed ? ""
                        : I < P.Gc.Problems.size()
                            ? P.Gc.Problems[I]
                            : "a collection left too few resident bytes");
    // The end check: every thread has killed its chains up to the final
    // epoch, so a full collection must leave exactly the oracle's objects
    // that die after it.
    H.collectAtBoundary(0);
    std::vector<runtime::Object *> Tables;
    for (const Worker &Wk : Workers)
      Tables.push_back(Wk.Table);
    Result->operation(checkRtEndState(
        H, Tables, In, W.Oracle->diesAfter(In.FinalEpoch * In.IntervalBytes)));
  }
  // Contexts go before the heap.
  Workers.clear();
  return P;
}

} // namespace

RunResult perfbench::runRtThreads(const RunOptions &Options,
                                  unsigned Threads) {
  RunResult Result;

  dtb::SampleSet SetupSeconds, GenerateSeconds;
  RtWorkload W;
  std::vector<TenantInput> Tenants;
  uint64_t MemMaxBytes = 0;
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    W = RtWorkload(); // Free the previous repetition's inputs first.
    uint64_t Begin = nowNanos();
    W = makeRtWorkload("multitenant", TotalBytes, IntervalBytes, Options.Seed,
                       /*WithTenants=*/true);
    Tenants = splitByTenant(W.In, Threads);
    // Mem_max sits above the combined live set: 16 times the oracle's
    // peak over the epoch boundaries, so DTBMEM mostly threatens young
    // epochs and goes deep only as garbage nears the budget.
    uint64_t PeakLive = 0;
    for (uint32_t E = 0; E <= W.In.FinalEpoch; ++E)
      PeakLive =
          std::max(PeakLive, W.Oracle->liveAt(E * W.In.IntervalBytes).Bytes);
    MemMaxBytes = 16 * PeakLive;
    runPass<false>(W, Tenants, Tenants[0].Ops.size() / WarmupDivisor,
                   MemMaxBytes, nullptr);
    SetupSeconds.add(nanosToSeconds(nowNanos() - Begin));
    GenerateSeconds.add(nanosToSeconds(W.GenerateNanos));
  }

  std::vector<ReplayStats> Timed, Plain;
  std::vector<RoundSample> Samples;
  uint64_t ResidentMax = 0;
  uint64_t PhaseBegin = nowNanos();
  size_t All = W.In.Ops.size();
  while (!measuredEnough(Samples, PhaseBegin, Options.Seconds)) {
    bool Timing = Options.Traced && Timed.size() == Plain.size();
    Pass P = Timing ? runPass<true>(W, Tenants, All, MemMaxBytes, &Result)
                    : runPass<false>(W, Tenants, All, MemMaxBytes, &Result);
    ResidentMax = std::max(ResidentMax, P.Gc.ResidentMax);
    Samples.push_back({nanosToSeconds(P.Stats.WallNanos),
                       toMB(P.Stats.AllocatedBytes), std::move(P.Pauses)});
    (Timing ? Timed : Plain).push_back(std::move(P.Stats));
  }

  uint64_t Traced = 0;
  for (const auto *Passes : {&Timed, &Plain})
    for (const ReplayStats &P : *Passes)
      Traced += P.ObjectsTraced;
  if (Traced == 0) {
    Result.Correct = false;
    Result.Problems.push_back("the collections traced no objects");
  }

  if (!Options.Traced)
    setEndToEnd(Result, SetupSeconds, Samples, ResidentMax);
  else
    setRuntimeLayers(Result, Timed, Plain, GenerateSeconds);
  return Result;
}

RunResult perfbench::replayRtThreadsOnce(const RtWorkload &W, unsigned Threads,
                                         uint64_t ModelExtraBytes) {
  RunResult Result;
  std::vector<TenantInput> Tenants = splitByTenant(W.In, Threads);
  for (TenantInput &T : Tenants)
    for (uint64_t &Live : T.ModelLive)
      Live += ModelExtraBytes;
  runPass<false>(W, Tenants, W.In.Ops.size(), ~uint64_t(0) >> 1, &Result);
  return Result;
}
