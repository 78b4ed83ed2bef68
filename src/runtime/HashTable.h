//===- runtime/HashTable.h - Chained hash table for joins/aggs --*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hash table backing hash joins and hash aggregation in compiled
/// queries. The design follows the data-centric codegen contract (§II):
/// generated code computes hashes (crc32 / long-mul-fold QIR ops), calls
/// rt_ht_insert to obtain a payload slot it fills with stores, and probes
/// by walking the bucket chain itself, comparing keys inline. Entries are
/// stored in fixed-size chunks so a later pipeline can scan the table
/// morsel-parallel by dense index.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_RUNTIME_HASHTABLE_H
#define QCF_RUNTIME_HASHTABLE_H

#include "support/Compiler.h"
#include <atomic>
#include <cstdint>
#include <mutex>

namespace qcf::rt {

/// Chained hash table with chunked entry storage.
///
/// Entry layout: [Next* : 8][Hash : 8][Payload : PayloadBytes]. Generated
/// code addresses the payload as entry+16.
class HashTable {
public:
  static constexpr uint32_t HeaderBytes = 16;
  static constexpr uint32_t ChunkEntries = 4096;

  /// \p ExpectedEntries sizes the bucket array (it is not a hard limit).
  HashTable(uint64_t ExpectedEntries, uint32_t PayloadBytes);
  ~HashTable();

  HashTable(const HashTable &) = delete;
  HashTable &operator=(const HashTable &) = delete;

  /// Inserts a new entry with \p Hash; returns the payload pointer.
  /// Single-threaded variant.
  void *insert(uint64_t Hash);

  /// Thread-safe insert for morsel-parallel build pipelines.
  void *insertAtomic(uint64_t Hash);

  /// First entry in the chain whose hash equals \p Hash (or nullptr).
  /// Returns the entry header; payload is at +16.
  void *lookup(uint64_t Hash) const;

  /// Next chain entry with the same hash after \p Entry (or nullptr).
  static void *nextMatch(void *Entry, uint64_t Hash);

  uint64_t count() const {
    return Count.load(std::memory_order_acquire);
  }

  /// Entry header by dense index in [0, count()). Only valid once the
  /// build phase has completed.
  void *entryAt(uint64_t Index) const;

  uint32_t payloadBytes() const { return PayloadBytes; }
  uint64_t numBuckets() const { return Mask + 1; }

private:
  struct EntryHeader {
    EntryHeader *Next;
    uint64_t Hash;
  };

  char *entrySlot(uint64_t Index) const;
  EntryHeader *allocateEntry(uint64_t Hash, bool Atomic);

  uint32_t PayloadBytes;
  uint32_t EntryBytes;
  uint64_t Mask = 0;
  // Both arrays are calloc'd, so each is zeroed at most once (a block glibc
  // mmaps comes back from the kernel already zeroed). Concurrent accesses
  // go through std::atomic_ref.
  EntryHeader **Buckets = nullptr;
  char **Chunks = nullptr;
  uint64_t MaxChunks = 0;
  std::atomic<uint64_t> Count{0};
  std::mutex ChunkLock;
};

} // namespace qcf::rt

#endif // QCF_RUNTIME_HASHTABLE_H
