//===- runtime/HashTable.cpp - Chained hash table --------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "runtime/HashTable.h"
#include <algorithm>
#include <cstdlib>
#include <cstring>

using namespace qcf;
using namespace qcf::rt;

static uint64_t roundUpPow2(uint64_t V) {
  if (V < 2)
    return 2;
  return uint64_t(1) << (64 - __builtin_clzll(V - 1));
}

static unsigned chunkOf(uint64_t Index) {
  return 63 - __builtin_clzll(Index + HashTable::FirstChunkEntries) -
         HashTable::FirstChunkLog2;
}

static uint64_t chunkBegin(unsigned Chunk) {
  return (HashTable::FirstChunkEntries << Chunk) - HashTable::FirstChunkEntries;
}

uint64_t HashTable::bucketsFor(uint64_t Entries) {
  return roundUpPow2(Entries * 2 + 64);
}

HashTable::HashTable(uint32_t PayloadBytes)
    : PayloadBytes(PayloadBytes),
      EntryBytes((HeaderBytes + PayloadBytes + 7) & ~7u) {
  resetDirectory(bucketsFor(0));
}

HashTable::~HashTable() {
  for (char *Chunk : Chunks)
    std::free(Chunk);
  std::free(Buckets);
}

void HashTable::resetDirectory(uint64_t NumBuckets) {
  std::free(Buckets);
  Buckets = static_cast<uint64_t *>(std::calloc(NumBuckets, sizeof(uint64_t)));
  if (QCF_UNLIKELY(!Buckets))
    reportFatalError("hash table allocation failed");
  Mask = NumBuckets - 1;
}

char *HashTable::entrySlot(uint64_t Index) const {
  unsigned K = chunkOf(Index);
  char *Chunk = std::atomic_ref(Chunks[K]).load(std::memory_order_acquire);
  assert(Chunk && "entry chunk not allocated");
  return Chunk + (Index - chunkBegin(K)) * EntryBytes;
}

HashTable::EntryHeader *HashTable::allocateEntry(uint64_t Hash, bool Atomic) {
  uint64_t Index = Atomic ? Count.fetch_add(1, std::memory_order_acq_rel)
                          : Count.load(std::memory_order_relaxed);
  if (!Atomic)
    Count.store(Index + 1, std::memory_order_release);

  unsigned K = chunkOf(Index);
  std::atomic_ref ChunkRef(Chunks[K]);
  if (!ChunkRef.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> Lock(ChunkLock);
    if (!ChunkRef.load(std::memory_order_relaxed)) {
      uint64_t Bytes = (FirstChunkEntries << K) * EntryBytes;
      char *Chunk = static_cast<char *>(std::malloc(Bytes));
      // Directory words keep the entry pointer in their low 48 bits.
      if (QCF_UNLIKELY(!Chunk ||
                       reinterpret_cast<uintptr_t>(Chunk) + Bytes > PtrMask))
        reportFatalError("hash table allocation failed");
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

void HashTable::linkEntry(EntryHeader *E) {
  uint64_t &Word = Buckets[E->Hash & Mask];
  E->Next = reinterpret_cast<EntryHeader *>(Word & PtrMask);
  Word = reinterpret_cast<uint64_t>(E) | tagBit(E->Hash) | (Word & ~PtrMask);
}

void *HashTable::insert(uint64_t Hash) {
  EntryHeader *E = allocateEntry(Hash, /*Atomic=*/false);
  if (bucketsFor(count()) > numBuckets())
    link(); // doubles; every entry keeps its hash
  else
    linkEntry(E);
  return reinterpret_cast<char *>(E) + HeaderBytes;
}

void *HashTable::insertAtomic(uint64_t Hash) {
  return reinterpret_cast<char *>(allocateEntry(Hash, /*Atomic=*/true)) +
         HeaderBytes;
}

void HashTable::link() {
  uint64_t N = count();
  resetDirectory(bucketsFor(N));
  // One chunk at a time: entries are contiguous within a chunk.
  for (unsigned K = 0; chunkBegin(K) < N; ++K) {
    uint64_t End = std::min(N, chunkBegin(K + 1));
    char *Slot = entrySlot(chunkBegin(K));
    for (uint64_t I = chunkBegin(K); I != End; ++I, Slot += EntryBytes)
      linkEntry(reinterpret_cast<EntryHeader *>(Slot));
  }
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
