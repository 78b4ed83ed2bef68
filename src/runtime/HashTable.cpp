//===- runtime/HashTable.cpp - Chained hash table --------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "runtime/HashTable.h"
#include <cstdlib>
#include <cstring>

using namespace qcf;
using namespace qcf::rt;

template <typename T> static T *allocZeroed(uint64_t N) {
  void *P = std::calloc(N, sizeof(T));
  if (QCF_UNLIKELY(!P))
    reportFatalError("hash table allocation failed");
  return static_cast<T *>(P);
}

static uint64_t roundUpPow2(uint64_t V) {
  if (V < 2)
    return 2;
  return uint64_t(1) << (64 - __builtin_clzll(V - 1));
}

HashTable::HashTable(uint64_t ExpectedEntries, uint32_t PayloadBytes)
    : PayloadBytes(PayloadBytes),
      EntryBytes((HeaderBytes + PayloadBytes + 7) & ~7u) {
  uint64_t NumBuckets = roundUpPow2(ExpectedEntries * 2 + 64);
  Mask = NumBuckets - 1;
  Buckets = allocZeroed<EntryHeader *>(NumBuckets);

  // Enough chunk slots for 8x the expectation; chains make overflow
  // gradual rather than fatal, but the slot array itself is fixed.
  MaxChunks = (ExpectedEntries * 8) / ChunkEntries + 16;
  Chunks = allocZeroed<char *>(MaxChunks);
}

HashTable::~HashTable() {
  for (uint64_t I = 0; I != MaxChunks; ++I)
    delete[] Chunks[I];
  std::free(Chunks);
  std::free(Buckets);
}

char *HashTable::entrySlot(uint64_t Index) const {
  uint64_t ChunkIdx = Index / ChunkEntries;
  uint64_t Offset = (Index % ChunkEntries) * EntryBytes;
  char *Chunk =
      std::atomic_ref(Chunks[ChunkIdx]).load(std::memory_order_acquire);
  assert(Chunk && "entry chunk not allocated");
  return Chunk + Offset;
}

HashTable::EntryHeader *HashTable::allocateEntry(uint64_t Hash, bool Atomic) {
  uint64_t Index = Atomic ? Count.fetch_add(1, std::memory_order_acq_rel)
                          : Count.load(std::memory_order_relaxed);
  if (!Atomic)
    Count.store(Index + 1, std::memory_order_release);

  uint64_t ChunkIdx = Index / ChunkEntries;
  if (QCF_UNLIKELY(ChunkIdx >= MaxChunks))
    reportFatalError("hash table exceeded its chunk capacity");
  std::atomic_ref ChunkRef(Chunks[ChunkIdx]);
  if (!ChunkRef.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> Lock(ChunkLock);
    if (!ChunkRef.load(std::memory_order_relaxed)) {
      char *Chunk = new char[static_cast<size_t>(ChunkEntries) * EntryBytes];
      ChunkRef.store(Chunk, std::memory_order_release);
    }
  }

  char *Slot = entrySlot(Index);
  auto *E = reinterpret_cast<EntryHeader *>(Slot);
  E->Next = nullptr;
  E->Hash = Hash;
  std::memset(Slot + HeaderBytes, 0, PayloadBytes);
  return E;
}

void *HashTable::insert(uint64_t Hash) {
  EntryHeader *E = allocateEntry(Hash, /*Atomic=*/false);
  std::atomic_ref Bucket(Buckets[Hash & Mask]);
  E->Next = Bucket.load(std::memory_order_relaxed);
  Bucket.store(E, std::memory_order_relaxed);
  return reinterpret_cast<char *>(E) + HeaderBytes;
}

void *HashTable::insertAtomic(uint64_t Hash) {
  EntryHeader *E = allocateEntry(Hash, /*Atomic=*/true);
  std::atomic_ref Bucket(Buckets[Hash & Mask]);
  EntryHeader *Head = Bucket.load(std::memory_order_acquire);
  do {
    E->Next = Head;
  } while (!Bucket.compare_exchange_weak(Head, E, std::memory_order_acq_rel,
                                         std::memory_order_acquire));
  return reinterpret_cast<char *>(E) + HeaderBytes;
}

void *HashTable::lookup(uint64_t Hash) const {
  EntryHeader *E =
      std::atomic_ref(Buckets[Hash & Mask]).load(std::memory_order_acquire);
  while (E && E->Hash != Hash)
    E = E->Next;
  return E;
}

void *HashTable::nextMatch(void *Entry, uint64_t Hash) {
  auto *E = static_cast<EntryHeader *>(Entry)->Next;
  while (E && E->Hash != Hash)
    E = E->Next;
  return E;
}

void *HashTable::entryAt(uint64_t Index) const {
  assert(Index < count() && "entry index out of range");
  return entrySlot(Index);
}
