//===- runtime/CopyingCollector.cpp - Evacuating scavenger ---------------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// The copying strategy: surviving threatened objects are evacuated to
// fresh storage (Cheney-style, with an explicit forwarding table) and
// every original in the threatened region is released at once — the
// paper's "reclaiming all the storage at once in the case of a copying
// collector". Immune objects never move; pinned threatened objects are
// traced in place. References into the threatened region are updated in
// the global roots, handle slots, evacuated copies, and — for immune
// objects — exactly the remembered-set entries, which by construction
// cover every immune→threatened pointer.
//
// Births travel with the copies, so the birth-ordered allocation list is
// rebuilt by substituting forwarded addresses in place: the collector
// "may maintain object locations in any order" (Figure 1's caption) while
// the logical age order is preserved.
//
// Evacuation is serial and runs with the world stopped. A survivor's
// copy is published in a side table of forwarding slots, indexed by the
// original's position in the threatened suffix (the 24-byte header has no
// room for a forwarding pointer); a filled slot is the "already copied"
// test.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include "runtime/Mutator.h"
#include "runtime/TraceQuantum.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;
using core::AllocClock;

Heap::ScavengeWork Heap::runCopying(AllocClock Boundary) {
  ScavengeWork Work;

  const size_t Begin = firstBornAfter(Boundary);
  // Forwarding side table, one slot per threatened original. The object
  // list is birth-ordered and frozen until the sweep, so a threatened
  // original's slot is recoverable by position (direct index in the
  // sweep, binary search on the unique birth elsewhere).
  std::vector<Object *> Forward(Objects.size() - Begin);
  auto forwardSlot = [&](const Object *O) -> Object *& {
    auto It = std::lower_bound(
        Objects.begin() + static_cast<ptrdiff_t>(Begin), Objects.end(),
        O->birth(),
        [](const Object *A, AllocClock Birth) { return A->birth() < Birth; });
    assert(It != Objects.end() && *It == O && "original not in object list");
    return Forward[static_cast<size_t>(It - Objects.begin()) - Begin];
  };

  auto isThreatened = [&](const Object *O) {
    return O && O->birth() > Boundary;
  };

  std::vector<Object *> Gray;

  // Evacuates a threatened object (or visits it in place when pinned),
  // queues it for scanning the first time it is reached, and returns its
  // post-collection address.
  auto relocate = [&](Object *O) -> Object * {
    assert(isThreatened(O) && "relocating an immune object");
    assert(O->isAlive() && "relocating a reclaimed object");
    Object *&Slot = forwardSlot(O);
    if (Slot)
      return Slot;
    Work.TracedBytes += O->grossBytes();
    LastStats.ObjectsTraced += 1;
    Demographics.recordSurvivor(O->birth(), O->grossBytes());
    if (isPinned(O)) {
      // Pinned objects are traced in place and keep their address; the
      // mark bit records the in-place survival for the sweep.
      O->setMarked();
      Slot = O;
    } else {
      // Clone: identical header (birth included) and payload. Copies
      // always get dedicated storage, even when the original lived inside
      // a TLAB block.
      Slot = static_cast<Object *>(::operator new(O->grossBytes()));
      std::memcpy(static_cast<void *>(Slot), static_cast<const void *>(O),
                  O->grossBytes());
      Slot->Storage = Object::StorageOwn;
      LastStats.ObjectsMoved += 1;
    }
    Gray.push_back(Slot);
    return Slot;
  };

  // Fixes up one copy's (or pinned survivor's) slots, relocating
  // threatened targets.
  auto scanForPromotion = [&](Object *O) {
    for (uint32_t I = 0, E = O->numSlots(); I != E; ++I) {
      Object *Target = O->slot(I);
      if (!isThreatened(Target))
        continue;
      Object *Moved = relocate(Target);
      if (Moved != Target)
        O->setSlotRaw(I, Moved);
    }
  };

  // --- Roots ------------------------------------------------------------
  // Phase costs mirror the mark-sweep strategy: bytes evacuated during
  // each phase (the Work.TracedBytes delta); the transitive scan is the
  // promote phase — it is where survivors get copied out of the region.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::RootScan);
    uint64_t Before = Work.TracedBytes;
    for (Object **Root : GlobalRoots)
      if (isThreatened(*Root))
        *Root = relocate(*Root);
    for (Object *&Handle : HandleSlots)
      if (isThreatened(Handle))
        Handle = relocate(Handle);
    for (Object *PinnedObject : Pinned)
      if (isThreatened(PinnedObject))
        relocate(PinnedObject); // In place; no move.
    // Per-context root slots are updated in place, exactly like handles
    // (the world is stopped, so the slots are stable).
    for (MutatorContext *Ctx : Mutators)
      for (Object *&Root : Ctx->Roots)
        if (isThreatened(Root))
          Root = relocate(Root);
    Phase.addCost(Work.TracedBytes - Before);
  }

  // Remembered-set roots: immune sources holding pointers across the
  // boundary get their slots rewritten to the relocated targets. Stale
  // entries are pruned exactly as in the mark-sweep strategy.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::RemSetScan);
    uint64_t Before = Work.TracedBytes;
    RemSet.forEachAndPrune([&](Object *Source, uint32_t SlotIndex) {
      assert(Source->isAlive() && "remembered set names a dead source");
      Object *Target = Source->slot(SlotIndex);
      if (!Target || Target->birth() <= Source->birth()) {
        LastStats.RememberedSetPruned += 1;
        return false;
      }
      if (Source->birth() <= Boundary && isThreatened(Target)) {
        LastStats.RememberedSetRoots += 1;
        Source->setSlotRaw(SlotIndex, relocate(Target));
      }
      return true;
    });
    Phase.addCost(Work.TracedBytes - Before);
  }

  // --- Transitive evacuation --------------------------------------------
  // Scan copies (and pinned survivors) for pointers into the threatened
  // region; such targets are themselves relocated and the slots fixed up.
  // Slots referencing immune objects are left alone — immune objects do
  // not move. Runs as budget-bounded quanta.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::Promote);
    uint64_t Before = Work.TracedBytes;
    while (!Gray.empty()) {
      uint64_t Scanned =
          runTraceQuantum(Gray, Config.ScavengeBudgetBytes, scanForPromotion);
      LastStats.TraceQuanta += 1;
      if (Scanned > LastStats.MaxQuantumTracedBytes)
        LastStats.MaxQuantumTracedBytes = Scanned;
    }
    Phase.addCost(Work.TracedBytes - Before);
  }

  // --- Weak-reference processing ----------------------------------------
  // Weak references follow moved targets and are cleared when the target
  // did not survive; references to immune objects — and pinned survivors,
  // whose forwarding slot publishes their unchanged address — are
  // untouched.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::WeakRefs);
    Phase.addCost(WeakRefs.size());
    for (WeakRef *Weak : WeakRefs) {
      Object *Target = Weak->get();
      if (!isThreatened(Target))
        continue;
      Object *Survivor = forwardSlot(Target);
      if (!Survivor)
        Weak->set(nullptr);
      else if (Survivor != Target)
        Weak->set(Survivor);
    }
  }

  // --- Remembered-set rekeying ------------------------------------------
  // Entries whose source moved follow the copy (slot indices are layout-
  // preserved); entries whose threatened source did not survive are
  // dropped. A forwarding slot publishing the original itself is a pinned
  // survivor, traced in place.
  RemSet.remapSources([&](Object *Source) -> Object * {
    if (!isThreatened(Source))
      return Source; // Immune sources stay put.
    return forwardSlot(Source);
  });

  // --- Region release and list rebuild ----------------------------------
  // Substitute survivors into the birth-ordered allocation list (births
  // travel with copies, so in-place substitution preserves the order) and
  // release every non-pinned original in the threatened region at once.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::Sweep);
    size_t Out = Begin;
    for (size_t I = Begin, E = Objects.size(); I != E; ++I) {
      Object *O = Objects[I];
      Object *Survivor = Forward[I - Begin];
      if (Survivor == O) { // Pinned survivor, traced in place.
        O->clearMarked();
        Objects[Out++] = O;
        continue;
      }
      if (Survivor) {
        Objects[Out++] = Survivor;
        // The original's storage is released; a stale raw pointer held by
        // the mutator across this collection is a bug the quarantine
        // canary will catch.
        releaseStorage(O);
        continue;
      }
      Work.ReclaimedBytes += O->grossBytes();
      LastStats.ObjectsReclaimed += 1;
      releaseStorage(O);
    }
    Objects.resize(Out);
    Phase.addCost(Work.ReclaimedBytes);
  }
  return Work;
}

void Heap::releaseStorage(Object *O) {
  O->Magic = Object::MagicDead;
  if (Config.QuarantineFreedObjects) {
    // TLAB-interior objects quarantine like any other (their block then
    // simply never drains to zero, so it stays resident — quarantine mode
    // is monotonic either way).
    std::memset(O->rawData(), 0xDB, O->rawBytes());
    for (uint32_t I = 0; I != O->numSlots(); ++I)
      O->setSlotRaw(I, nullptr);
    Quarantine.push_back(O);
    return;
  }
  if (O->storageKind() == Object::StorageTlab) {
    // The object shares its TLAB block's storage: the block is freed only
    // when its last object dies after the owning context retired it.
    // Sweeps run world-stopped, so the block table is stable here.
    TlabBlock *Block = tlabBlockFor(O);
    DTB_CHECK(Block, "TLAB-interior object outside every block");
    DTB_CHECK(Block->LiveObjects != 0, "TLAB block live-count underflow");
    Block->LiveObjects -= 1;
    if (Block->Retired && Block->LiveObjects == 0)
      freeTlabBlock(Block);
    return;
  }
  ::operator delete(static_cast<void *>(O));
}
