//===- runtime/Object.h - Managed heap object layout -----------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The managed object model. Every object is a header followed by its
/// payload: NumSlots pointer slots (references to other managed objects)
/// and then RawBytes of uninterpreted data. The header carries the object's
/// exact *birth time* on the allocation clock — the property the dynamic
/// threatening boundary collector depends on (§4.2 of the paper: exact
/// ages model a generational collector with arbitrarily many generations).
///
//===----------------------------------------------------------------------===//

#ifndef DTB_RUNTIME_OBJECT_H
#define DTB_RUNTIME_OBJECT_H

#include "core/AllocClock.h"

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace dtb {
namespace runtime {

/// A managed heap object. Instances are created only by Heap::allocate;
/// pointer slots must be written through Heap::writeSlot so the write
/// barrier can maintain the remembered set.
class Object {
public:
  /// Header canary values: catches use-after-free and wild pointers in
  /// debug/verification runs.
  static constexpr uint16_t MagicAlive = 0xD7B1;
  static constexpr uint16_t MagicDead = 0xDEAD;

  enum : uint8_t {
    FlagMarked = 1u << 0,
  };

  /// Where the object's storage came from — decides how releaseStorage
  /// returns it. (Fits the header's former padding byte.)
  enum : uint8_t {
    /// A dedicated ::operator new block; released individually.
    StorageOwn = 0,
    /// Interior to a thread-local allocation buffer (TLAB) carved by a
    /// MutatorContext; the block is released when its last object dies
    /// (runtime/Mutator.cpp), never per-object.
    StorageTlab = 1,
  };

  /// The storage kind (StorageOwn / StorageTlab).
  uint8_t storageKind() const { return Storage; }

  uint32_t numSlots() const { return NumSlots; }
  uint32_t rawBytes() const { return RawBytes; }
  /// Total footprint (header + slots + raw data) — the "size" the
  /// collector accounts in bytes traced and reclaimed.
  uint32_t grossBytes() const { return GrossBytes; }
  /// The allocation-clock value at which this object was born.
  core::AllocClock birth() const { return Birth; }

  bool isAlive() const { return Magic == MagicAlive; }
  bool isMarked() const { return (Flags & FlagMarked) != 0; }

  /// Reads pointer slot \p Index (no barrier needed for reads).
  Object *slot(uint32_t Index) const {
    assert(isAlive() && "reading slot of a dead object");
    assert(Index < NumSlots && "slot index out of range");
    return slots()[Index];
  }

  /// The raw-data area (RawBytes bytes, after the slots).
  void *rawData() {
    return reinterpret_cast<char *>(slots() + NumSlots);
  }
  const void *rawData() const {
    return reinterpret_cast<const char *>(slots() + NumSlots);
  }

private:
  friend class Heap;
  friend class MutatorContext;

  Object() = default;

  Object **slots() const {
    return reinterpret_cast<Object **>(
        const_cast<char *>(reinterpret_cast<const char *>(this + 1)));
  }

  void setSlotRaw(uint32_t Index, Object *Value) {
    assert(Index < NumSlots && "slot index out of range");
    slots()[Index] = Value;
  }

  void setMarked() { Flags |= FlagMarked; }
  void clearMarked() { Flags &= static_cast<uint8_t>(~FlagMarked); }

  uint16_t Magic = MagicAlive;
  uint8_t Flags = 0;
  uint8_t Storage = StorageOwn;
  uint32_t NumSlots = 0;
  uint32_t RawBytes = 0;
  uint32_t GrossBytes = 0;
  core::AllocClock Birth = 0;
};

static_assert(sizeof(Object) == 24, "object header grew unexpectedly");

} // namespace runtime
} // namespace dtb

#endif // DTB_RUNTIME_OBJECT_H
