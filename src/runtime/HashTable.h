//===- runtime/HashTable.h - Chained hash table for joins/aggs --*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hash table backing hash joins, hash aggregation and sort
/// materialization in compiled queries. The design follows the
/// data-centric codegen contract (§II): generated code computes hashes
/// (crc32 / long-mul-fold QIR ops), calls rt_ht_insert to obtain a payload
/// slot it fills with stores, and probes by walking the bucket chain
/// itself, comparing keys inline. One thread uses a table at a time.
///
/// Entries live in chunks that double in size (chunk k holds 256 << k
/// entries), so the table has no capacity, an entry never moves, and a
/// later pipeline can scan it morsel by morsel by dense index. The first
/// chunk is small because most tables of a served query hold a few rows.
/// The directory is sized from what was inserted, never from a guess, the
/// way HyPer and Umbra do it (Morsel-Driven Parallelism, §4.2):
///  - a join build appends with append(), which does not touch the
///    directory; once the build pipeline ends, link() sizes the directory
///    from count() and links every entry;
///  - an aggregation's serial insert links as it goes and doubles the
///    directory, relinking from the chunks, when the load would pass the
///    sizing rule (entries keep their full hash, so no key is rehashed).
/// Each directory word carries a 16-bit tag in its high bits: one bit per
/// entry in the chain, picked by the hash's top four bits. lookup() answers
/// a probe whose bit is clear without touching an entry.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_RUNTIME_HASHTABLE_H
#define QCF_RUNTIME_HASHTABLE_H

#include "support/BlockCache.h"
#include "support/Compiler.h"
#include <cstdint>

namespace qcf::rt {

/// Chained hash table with geometrically chunked entry storage.
///
/// Entry layout: [Next* : 8][Hash : 8][Payload : PayloadBytes]. Generated
/// code addresses the payload as entry+16.
class HashTable {
public:
  static constexpr uint32_t HeaderBytes = 16;
  static constexpr unsigned FirstChunkLog2 = 8;
  static constexpr uint64_t FirstChunkEntries = uint64_t(1) << FirstChunkLog2;

  explicit HashTable(uint32_t PayloadBytes);
  ~HashTable();

  HashTable(const HashTable &) = delete;
  HashTable &operator=(const HashTable &) = delete;

  static void *operator new(size_t Bytes) { return blocks::allocate(Bytes); }
  static void operator delete(void *P, size_t Bytes) {
    blocks::deallocate(P, Bytes);
  }

  /// Inserts and links a new entry with \p Hash, growing the directory
  /// when needed; returns the payload pointer.
  void *insert(uint64_t Hash);

  /// Appends a new entry with \p Hash for a join build or a sort's rows;
  /// returns the payload pointer. The entry is not reachable through
  /// lookup() until link().
  void *append(uint64_t Hash);

  /// Replaces the directory with one sized from count() and links every
  /// entry, so each chain lists its entries newest first, as serial
  /// inserts do. Must not overlap inserts or lookups.
  void link();

  /// First entry in the chain whose hash equals \p Hash (or nullptr).
  /// Returns the entry header; payload is at +16.
  void *lookup(uint64_t Hash) const {
    uint64_t Word = Buckets[Hash & Mask];
    if (!(Word & tagBit(Hash)))
      return nullptr;
    auto *E = reinterpret_cast<EntryHeader *>(Word & PtrMask);
    while (E && E->Hash != Hash)
      E = E->Next;
    return E;
  }

  /// Next chain entry with the same hash after \p Entry (or nullptr).
  static void *nextMatch(void *Entry, uint64_t Hash);

  uint64_t count() const { return Count; }

  /// Entry header by dense index in [0, count()). Only valid once the
  /// build phase has completed.
  void *entryAt(uint64_t Index) const;

  uint32_t payloadBytes() const { return PayloadBytes; }
  uint64_t numBuckets() const { return Mask + 1; }

  /// Directory size for \p Entries entries: roundUpPow2(2n + 64).
  static uint64_t bucketsFor(uint64_t Entries);

private:
  struct EntryHeader {
    EntryHeader *Next;
    uint64_t Hash;
  };

  /// A directory word is [tag : 16][entry pointer : 48].
  static constexpr uint64_t PtrMask = (uint64_t(1) << 48) - 1;
  static uint64_t tagBit(uint64_t Hash) {
    return uint64_t(1) << (48 + (Hash >> 60));
  }

  /// Chunk k holds FirstChunkEntries << k entries; 52 chunks hold more
  /// entries than any address space.
  static constexpr unsigned ChunkSlots = 52;

  uint64_t chunkBytes(unsigned Chunk) const {
    return (FirstChunkEntries << Chunk) * EntryBytes;
  }
  char *entrySlot(uint64_t Index) const;
  EntryHeader *allocateEntry(uint64_t Hash);
  void resetDirectory(uint64_t NumBuckets);
  void linkEntry(EntryHeader *E);

  uint32_t PayloadBytes;
  uint32_t EntryBytes;
  uint64_t Mask = 0;
  // Every directory comes zeroed from blocks::allocateZeroed: a recycled
  // one is cleared, a large one is calloc'd (a block glibc mmaps comes
  // back from the kernel already zeroed).
  uint64_t *Buckets = nullptr;
  char *Chunks[ChunkSlots] = {};
  uint64_t Count = 0;
};

} // namespace qcf::rt

#endif // QCF_RUNTIME_HASHTABLE_H
