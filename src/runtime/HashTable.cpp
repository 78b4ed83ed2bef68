//===- runtime/HashTable.cpp - Chained hash table --------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "runtime/HashTable.h"
#include <algorithm>
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
  for (unsigned K = 0; K != ChunkSlots && Chunks[K]; ++K)
    blocks::deallocate(Chunks[K], chunkBytes(K));
  blocks::deallocate(Buckets, numBuckets() * sizeof(uint64_t));
}

void HashTable::resetDirectory(uint64_t NumBuckets) {
  if (Buckets)
    blocks::deallocate(Buckets, numBuckets() * sizeof(uint64_t));
  Buckets = static_cast<uint64_t *>(
      blocks::allocateZeroed(NumBuckets * sizeof(uint64_t)));
  Mask = NumBuckets - 1;
}

char *HashTable::entrySlot(uint64_t Index) const {
  unsigned K = chunkOf(Index);
  assert(Chunks[K] && "entry chunk not allocated");
  return Chunks[K] + (Index - chunkBegin(K)) * EntryBytes;
}

HashTable::EntryHeader *HashTable::allocateEntry(uint64_t Hash) {
  uint64_t Index = Count++;
  unsigned K = chunkOf(Index);
  if (!Chunks[K]) {
    uint64_t Bytes = chunkBytes(K);
    char *Chunk = static_cast<char *>(blocks::allocate(Bytes));
    // Directory words keep the entry pointer in their low 48 bits.
    if (QCF_UNLIKELY(reinterpret_cast<uintptr_t>(Chunk) + Bytes > PtrMask))
      reportFatalError("hash table allocation failed");
    Chunks[K] = Chunk;
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
  EntryHeader *E = allocateEntry(Hash);
  if (bucketsFor(count()) > numBuckets())
    link(); // doubles; every entry keeps its hash
  else
    linkEntry(E);
  return reinterpret_cast<char *>(E) + HeaderBytes;
}

void *HashTable::append(uint64_t Hash) {
  return reinterpret_cast<char *>(allocateEntry(Hash)) + HeaderBytes;
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
